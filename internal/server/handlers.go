package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// maxSpecBytes bounds a job-spec request body; canonical specs are a
// few hundred bytes.
const maxSpecBytes = 1 << 20

// Handler returns the service's HTTP routes (see docs/API.md): the
// job routes every tier shares plus the executor's own.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.exec.Routes(mux)
	return s.instrument(mux)
}

// requestIDKey carries the request's ID through the handler context.
type requestIDKey struct{}

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// instrument wraps every route: it assigns (or adopts) the request ID,
// echoes it as X-Request-ID, counts the request and its response
// status — every status, labelled by code, satisfying the error-path
// accounting — and logs one structured record per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewSpanID().String()
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.AddStat(s.counter.requests, 1)
		ctx := contextWithRequestID(r.Context(), reqID)
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.Status == 0 {
			sw.Status = http.StatusOK
		}
		s.statsMu.Lock()
		s.statusCounts[sw.Status]++
		s.statsMu.Unlock()
		s.tier.Logger.Info("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.Status,
			"request_id", reqID, "dur_ms", time.Since(start).Milliseconds())
	})
}

func contextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// health counts the registered jobs by phase and hands them to the
// executor, which builds the health document. The service is ready
// when it is not draining and the executor can take work.
func (s *Server) health() (doc any, ready bool) {
	h := Health{Status: "ok"}
	s.mu.Lock()
	for _, j := range s.order {
		switch j.state {
		case StateQueued:
			h.Queued++
		case StateRunning:
			h.Running++
		}
	}
	h.Draining = s.draining
	s.mu.Unlock()
	if h.Draining {
		h.Status = "draining"
	}
	doc, ready = s.exec.Health(h)
	return doc, ready && !h.Draining
}

// handleHealth is liveness: always 200 while the process can answer,
// with the drain state and the executor's occupancy in the body.
// Readiness — "send me traffic" — is /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	doc, _ := s.health()
	WriteJSON(w, http.StatusOK, doc)
}

// handleReady is readiness: 503 once Drain begins (new submissions
// are already being refused) or while the executor cannot take work,
// 200 otherwise.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	doc, ready := s.health()
	if !ready {
		WriteJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

// handleSubmit accepts a JSON job spec. With ?wait=true the response
// is deferred until the job reaches a terminal state (200); otherwise
// an accepted job answers 202 immediately. Cache hits always answer
// 200 with the completed job document; the X-Overlaysim-Cache header
// names the tier that answered (`hit` = in-memory LRU, `hit-store` =
// persistent store, `miss` = the executor ran the job). A concurrent
// identical submission joins the job already in flight (single-flight
// — the engine runs once) and is marked with an
// X-Overlaysim-Singleflight header naming the shared job. A rejection
// (429 with Retry-After, 503, or the executor's own status) registers
// nothing. A valid `traceparent` request header
// is adopted as the job trace's ID (the job's root span becomes a
// child of the client's span); the response echoes the job's own trace
// position in the same header.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := exp.ParseJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, err, "")
		return
	}
	remote, _ := obs.TraceparentFromHeader(r.Header)
	j, status, joined, err := s.submit(spec, requestID(r), remote)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.tier.RetryAfter+time.Second-1)/time.Second)))
		}
		WriteError(w, status, err, "")
		return
	}
	obs.PropagateTraceparent(w.Header(), j.span.Context())
	switch {
	case j.cached && j.cacheSrc == CacheStore:
		w.Header().Set("X-Overlaysim-Cache", "hit-store")
	case j.cached:
		w.Header().Set("X-Overlaysim-Cache", "hit")
	default:
		w.Header().Set("X-Overlaysim-Cache", "miss")
	}
	if joined {
		w.Header().Set("X-Overlaysim-Singleflight", j.id)
	}
	if status == http.StatusAccepted && wantWait(r) {
		select {
		case <-j.done:
			status = http.StatusOK
		case <-r.Context().Done():
			return // client gave up; the job keeps running
		}
	}
	s.mu.Lock()
	doc := j.doc(true)
	s.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	WriteDoc(w, status, doc)
}

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	docs := make([]JobDoc, 0, len(s.order))
	for _, j := range s.order {
		docs = append(docs, j.doc(false))
	}
	s.mu.Unlock()
	WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": docs})
}

// lookup resolves the path's job id, answering 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")), "")
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	doc := j.doc(true)
	s.mu.Unlock()
	WriteDoc(w, http.StatusOK, doc)
}

// handleResult serves the raw export document — exactly the bytes the
// equivalent CLI invocation would have written with -json. 409 until
// the job is done.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state := j.state
	result := j.result
	s.mu.Unlock()
	if state != StateDone {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no result to serve", j.id, state), j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result) //nolint:errcheck
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.cancelJob(r.PathValue("id"))
	if errors.Is(err, errNoSuchJob) {
		WriteError(w, http.StatusNotFound, err, "")
		return
	}
	if err != nil {
		WriteError(w, http.StatusConflict, err, j.id)
		return
	}
	s.mu.Lock()
	doc := j.doc(false)
	s.mu.Unlock()
	WriteJSON(w, http.StatusAccepted, doc)
}

// handleEvents streams the job's lifecycle as Server-Sent Events:
// `progress` events carry harness completion totals, and one terminal
// event — named after the final state — carries the full job document.
// Progress is coalescing (a slow client sees the latest state, not
// every tick); the terminal event is always delivered.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError,
			errors.New("streaming unsupported by this connection"), j.id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush() // release the headers before the first event arrives

	sub := make(chan struct{}, 1)
	s.mu.Lock()
	j.subs[sub] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(j.subs, sub)
		s.mu.Unlock()
	}()

	// Progress payloads carry the job's identifiers so a stream
	// consumer can correlate events with log records and the trace;
	// a routed job's also name the worker running it.
	type progressPayload struct {
		ProgressEvent
		JobID     string `json:"job_id"`
		Worker    string `json:"worker,omitempty"`
		TraceID   string `json:"trace_id,omitempty"`
		RequestID string `json:"request_id,omitempty"`
	}

	var sent ProgressEvent
	sentAny := false
	for {
		s.mu.Lock()
		prog, hasProg := j.progress, j.hasProg
		worker := j.worker
		terminal := j.terminal()
		var finalDoc JobDoc
		var state string
		if terminal {
			finalDoc = j.doc(true)
			state = j.state
		}
		s.mu.Unlock()

		if hasProg && (!sentAny || prog != sent) {
			payload := progressPayload{
				ProgressEvent: prog, JobID: j.id, Worker: worker,
				TraceID: j.traceID(), RequestID: j.requestID,
			}
			if err := WriteSSE(w, "progress", payload); err != nil {
				return
			}
			sent, sentAny = prog, true
			fl.Flush()
		}
		if terminal {
			if WriteDocEvent(w, state, finalDoc) == nil {
				fl.Flush()
			}
			return
		}
		select {
		case <-sub:
		case <-r.Context().Done():
			return
		}
	}
}

// handleMetrics renders, in Prometheus text format, the frontend's
// series — HTTP responses by status, jobs by backend, and the
// telemetry registry: frontend counters and histograms plus whatever
// the executor merged into it — followed by the executor's own.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.statsMu.Lock()
	if len(s.statusCounts) > 0 {
		m := "overlaysim_" + sim.PromName(s.tier.StatPrefix+"http_responses_total")
		fmt.Fprintf(w, "# HELP %s HTTP responses by status code\n# TYPE %s counter\n", m, m)
		codes := make([]int, 0, len(s.statusCounts))
		for code := range s.statusCounts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "%s{code=\"%s\"} %d\n",
				m, sim.PromEscapeLabel(strconv.Itoa(code)), s.statusCounts[code])
		}
	}
	if len(s.backendCounts) > 0 {
		m := "overlaysim_" + sim.PromName(s.tier.StatPrefix+"jobs_total")
		fmt.Fprintf(w, "# HELP %s jobs submitted by translation backend\n# TYPE %s counter\n", m, m)
		backends := make([]string, 0, len(s.backendCounts))
		for b := range s.backendCounts {
			backends = append(backends, b)
		}
		sort.Strings(backends)
		for _, b := range backends {
			fmt.Fprintf(w, "%s{backend=\"%s\"} %d\n",
				m, sim.PromEscapeLabel(b), s.backendCounts[b])
		}
	}
	sim.WritePrometheus(w, "overlaysim_", s.stats) //nolint:errcheck // client gone
	s.statsMu.Unlock()
	s.exec.WriteMetrics(w, r)
}
