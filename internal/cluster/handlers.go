package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
)

// maxSpecBytes bounds a job-spec request body (same limit as a
// worker's).
const maxSpecBytes = 1 << 20

// Handler returns the coordinator's HTTP routes: the single-node
// /v1/jobs surface, plus the fleet endpoints (see docs/CLUSTER.md).
func Handler(co *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", co.handleHealth)
	mux.HandleFunc("GET /readyz", co.handleReady)
	mux.HandleFunc("GET /metrics", co.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", co.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", co.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", co.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", co.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", co.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", co.handleCancel)
	mux.HandleFunc("GET /v1/workers", co.handleWorkers)
	mux.HandleFunc("POST /v1/workers", co.handleRegister)
	return co.instrument(mux)
}

// Handler is the method form of the package-level Handler.
func (co *Coordinator) Handler() http.Handler { return Handler(co) }

type requestIDKey struct{}

func requestID(r *http.Request) string {
	id, _ := r.Context().Value(requestIDKey{}).(string)
	return id
}

// instrument assigns (or adopts) the request ID, counts every
// response by status, and logs one record per request — the same
// contract a worker's middleware keeps.
func (co *Coordinator) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = obs.NewSpanID().String()
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &server.StatusWriter{ResponseWriter: w}
		start := time.Now()
		co.addStat("coord.http_requests", 1)
		ctx := context.WithValue(r.Context(), requestIDKey{}, reqID)
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.Status == 0 {
			sw.Status = http.StatusOK
		}
		co.statsMu.Lock()
		co.statusCounts[sw.Status]++
		co.statsMu.Unlock()
		co.cfg.Logger.Info("http request",
			"method", r.Method, "path", r.URL.Path, "status", sw.Status,
			"request_id", reqID, "dur_ms", time.Since(start).Milliseconds())
	})
}

// healthDoc reports the coordinator's live state: fleet size and
// routed-job counts by phase.
type healthDoc struct {
	Status         string `json:"status"`
	Workers        int    `json:"workers"`
	HealthyWorkers int    `json:"healthy_workers"`
	Running        int    `json:"running"`
	Draining       bool   `json:"draining"`
}

func (co *Coordinator) health() healthDoc {
	co.mu.Lock()
	defer co.mu.Unlock()
	d := healthDoc{Status: "ok", Workers: len(co.workers), Draining: co.draining}
	for _, w := range co.workers {
		if w.healthy {
			d.HealthyWorkers++
		}
	}
	for _, j := range co.order {
		if !j.terminal() {
			d.Running++
		}
	}
	if co.draining {
		d.Status = "draining"
	}
	return d
}

func (co *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, co.health())
}

// handleReady answers 503 while draining or while no worker is
// routable — a load balancer in front of several coordinators should
// skip one that cannot place jobs.
func (co *Coordinator) handleReady(w http.ResponseWriter, r *http.Request) {
	doc := co.health()
	if doc.Draining || doc.HealthyWorkers == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	server.WriteJSON(w, http.StatusOK, doc)
}

// handleSubmit mirrors a worker's POST /v1/jobs contract over the
// fleet: the spec's canonical digest picks the shard, the persistent
// store answers repeats (X-Overlaysim-Cache: hit-store), concurrent
// identical submissions single-flight onto one routed job
// (X-Overlaysim-Singleflight), 429 + Retry-After when every reachable
// shard is saturated, and 503 when none is reachable. ?wait=true
// defers the response until the routed job is terminal.
func (co *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := exp.ParseJobSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err, "")
		return
	}
	remote, _ := obs.TraceparentFromHeader(r.Header)
	j, status, joined, err := co.submit(spec, requestID(r), remote)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After",
				strconv.Itoa(int((co.cfg.RetryAfter+time.Second-1)/time.Second)))
		}
		jobID := ""
		if j != nil {
			jobID = j.id
		}
		server.WriteError(w, status, err, jobID)
		return
	}
	co.mu.Lock()
	sc := j.span.Context()
	cached := j.cached
	co.mu.Unlock()
	obs.PropagateTraceparent(w.Header(), sc)
	if cached {
		w.Header().Set("X-Overlaysim-Cache", "hit-store")
	} else {
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
			return // client gave up; the routed job keeps running
		}
	}
	co.mu.Lock()
	doc := j.doc(true)
	co.mu.Unlock()
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	server.WriteDoc(w, status, doc)
}

func wantWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

func (co *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	co.mu.Lock()
	docs := make([]interface{}, 0, len(co.order))
	for _, j := range co.order {
		docs = append(docs, j.doc(false))
	}
	co.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]interface{}{"jobs": docs})
}

func (co *Coordinator) lookup(w http.ResponseWriter, r *http.Request) (*cjob, bool) {
	co.mu.Lock()
	j, ok := co.jobs[r.PathValue("id")]
	co.mu.Unlock()
	if !ok {
		server.WriteError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")), "")
	}
	return j, ok
}

func (co *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := co.lookup(w, r)
	if !ok {
		return
	}
	co.mu.Lock()
	doc := j.doc(true)
	co.mu.Unlock()
	server.WriteDoc(w, http.StatusOK, doc)
}

// handleResult serves the raw result bytes — exactly what the worker
// served the coordinator, which is exactly what the CLI's -json would
// have written. 409 until done.
func (co *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := co.lookup(w, r)
	if !ok {
		return
	}
	co.mu.Lock()
	state := j.state
	result := j.result
	co.mu.Unlock()
	if state != server.StateDone {
		server.WriteError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s; no result to serve", j.id, state), j.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(result) //nolint:errcheck
}

func (co *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := co.cancelJob(r.PathValue("id"))
	if errors.Is(err, errNoSuchJob) {
		server.WriteError(w, http.StatusNotFound, err, "")
		return
	}
	if err != nil {
		server.WriteError(w, http.StatusConflict, err, j.id)
		return
	}
	co.mu.Lock()
	doc := j.doc(false)
	co.mu.Unlock()
	server.WriteJSON(w, http.StatusAccepted, doc)
}

// handleEvents re-publishes a routed job's lifecycle as the
// coordinator's own SSE stream. The client's connection survives a
// worker loss: progress resumes from the replacement shard on the
// same stream.
func (co *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := co.lookup(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError,
			errors.New("streaming unsupported by this connection"), j.id)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush() // release the headers before the first event arrives

	sub := make(chan struct{}, 1)
	co.mu.Lock()
	j.subs[sub] = struct{}{}
	co.mu.Unlock()
	defer func() {
		co.mu.Lock()
		delete(j.subs, sub)
		co.mu.Unlock()
	}()

	type progressPayload struct {
		server.ProgressEvent
		JobID     string `json:"job_id"`
		Worker    string `json:"worker,omitempty"`
		TraceID   string `json:"trace_id,omitempty"`
		RequestID string `json:"request_id,omitempty"`
	}

	var sent server.ProgressEvent
	sentAny := false
	for {
		co.mu.Lock()
		prog, hasProg := j.progress, j.hasProg
		worker := j.worker
		terminal := j.terminal()
		var finalDoc server.JobDoc
		var state string
		if terminal {
			finalDoc = j.doc(true)
			state = j.state
		}
		co.mu.Unlock()

		if hasProg && (!sentAny || prog != sent) {
			payload := progressPayload{
				ProgressEvent: prog, JobID: j.id, Worker: worker,
				TraceID: j.traceID(), RequestID: j.requestID,
			}
			if err := server.WriteSSE(w, "progress", payload); err != nil {
				return
			}
			sent, sentAny = prog, true
			fl.Flush()
		}
		if terminal {
			if server.WriteDocEvent(w, state, finalDoc) == nil {
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

// handleWorkers lists the fleet, stable by URL.
func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	docs := co.workerDocs()
	sort.Slice(docs, func(i, k int) bool { return docs[i].URL < docs[k].URL })
	server.WriteJSON(w, http.StatusOK, map[string]interface{}{"workers": docs})
}

// handleRegister accepts a worker announcement: {"url": "http://..."}.
// Registration is idempotent and doubles as a keep-alive.
func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err), "")
		return
	}
	if body.URL == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("registration needs a url"), "")
		return
	}
	co.RegisterWorker(body.URL)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered", "url": body.URL})
}
