package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
)

// traceCap bounds each job's span buffer in spans.
const traceCap = 512

// Executor runs the jobs a Server admits. The local executor (New)
// runs them on this machine; the coordinator's remote executor
// (internal/cluster) forwards them to a worker fleet. The Server owns
// everything a client sees of a job; an executor reports back through
// the Server's Start, Progress and Finish.
type Executor interface {
	// Admit takes a new, still queued job. It is called without the
	// Server's lock and may block: the remote executor forwards the job
	// before it returns. ctx is the job's context, cancelled when the
	// job is cancelled or ends. On rejection it returns the HTTP status
	// and error to answer with, and the Server registers nothing.
	Admit(ctx context.Context, j *Job) (status int, err error)

	// Health builds the document /healthz and /readyz answer with from
	// the frontend's counts, and reports whether the executor can take
	// work: /readyz answers 503 when it cannot.
	Health(h Health) (doc any, ready bool)

	// Routes adds the executor's own endpoints.
	Routes(mux *http.ServeMux)

	// WriteMetrics renders the executor's series on /metrics, after
	// the frontend's status counts and registry.
	WriteMetrics(w io.Writer, r *http.Request)
}

// Tier names what sets one frontend apart besides its executor.
type Tier struct {
	JobPrefix  string // job IDs are JobPrefix + six digits
	RootSpan   string // name of each job's root span
	StatPrefix string // prefix of the frontend's registry counters

	// CacheSize bounds the in-memory result tier in entries. Zero means
	// the tier has no memory tier at all; a negative size keeps one
	// that holds nothing, so its misses are still counted.
	CacheSize int

	// Store is the persistent result tier (nil = none). A miss in
	// memory consults it before the job is registered, and a completed
	// result is written through to it before it is published.
	Store ResultStore

	// Backends tallies submissions by translation backend and tags
	// each job's root span with its backend.
	Backends bool

	RetryAfter     time.Duration // backpressure hint sent with a 429
	Logger         *slog.Logger  // nil = records are discarded
	DisableTracing bool
}

// Health is the frontend's half of a health document.
type Health struct {
	Status   string // "ok", or "draining" once Drain has begun
	Queued   int    // registered jobs not yet started
	Running  int    // started jobs not yet terminal
	Draining bool
}

// Server is the job frontend of both `serve` and `coordinator`: the
// /v1/jobs API, the result tiers and single-flight, the job table, and
// drain. Construct one with New (local execution) or NewFrontend, serve
// its Handler, and stop it with Drain.
type Server struct {
	tier    Tier
	exec    Executor
	counter counters

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup // goroutines started with Go

	// statsMu guards the telemetry registry; sim.Stats itself is not
	// concurrency-safe. statusCounts and backendCounts ride under the
	// same lock: the registry has no labelled counters, so HTTP response
	// statuses and per-backend job tallies are kept aside and rendered
	// as {code="NNN"}- and {backend="name"}-labelled series.
	statsMu       sync.Mutex
	stats         *sim.Stats
	statusCounts  map[int]uint64
	backendCounts map[string]uint64

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []*Job          // submission order, for listing
	inflight map[string]*Job // canonical key → queued/running job
	cache    *resultCache    // nil without a memory tier
	draining bool
	seq      int
}

// counters holds the names of the frontend's registry counters, each
// Tier.StatPrefix plus a fixed suffix, built once so that no request
// concatenates a name.
type counters struct {
	requests, submitted, cacheHits, cacheMisses, joined,
	storeHits, storePuts, storeErrors, completed, failed, cancelled string
}

func newCounters(p string) counters {
	return counters{
		requests: p + "http_requests", submitted: p + "jobs_submitted",
		cacheHits: p + "cache_hits", cacheMisses: p + "cache_misses",
		joined: p + "singleflight_hits", storeHits: p + "store_hits",
		storePuts: p + "store_puts", storeErrors: p + "store_errors",
		completed: p + "jobs_completed", failed: p + "jobs_failed",
		cancelled: p + "jobs_cancelled",
	}
}

// NewFrontend builds a frontend over exec.
func NewFrontend(tier Tier, exec Executor) *Server {
	if tier.Logger == nil {
		tier.Logger = obs.Nop()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		tier:          tier,
		exec:          exec,
		counter:       newCounters(tier.StatPrefix),
		baseCtx:       ctx,
		baseCancel:    cancel,
		stats:         &sim.Stats{},
		statusCounts:  make(map[int]uint64),
		backendCounts: make(map[string]uint64),
		jobs:          make(map[string]*Job),
		inflight:      make(map[string]*Job),
	}
	if tier.CacheSize != 0 {
		s.cache = newResultCache(tier.CacheSize)
	}
	return s
}

// Go runs fn on a goroutine that Drain waits for. Its context is
// cancelled once Drain has let the jobs finish (or given up on them).
func (s *Server) Go(fn func(ctx context.Context)) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn(s.baseCtx)
	}()
}

// AddStat bumps a counter in the frontend's registry.
func (s *Server) AddStat(name string, n uint64) {
	s.statsMu.Lock()
	s.stats.Add(name, n)
	s.statsMu.Unlock()
}

// observe records one histogram sample under the registry lock.
func (s *Server) observe(name string, v uint64) {
	s.statsMu.Lock()
	s.stats.Histogram(name).Observe(v)
	s.statsMu.Unlock()
}

var errDraining = errors.New("server is draining; not accepting jobs")

// submit registers a new job or answers from a result tier. requestID
// tags the job with the submitting request; remote, when valid, is the
// client's traceparent, adopted as the job trace's ID and root parent.
// The order is fixed: drain check, memory tier, single-flight join,
// persistent store, executor admission, registration. A job enters the
// job table only once its executor has taken it, so a refused one was
// never listed and its ID is never handed out, nor reused. It returns
// the job (possibly an already-terminal cache-backed record, or —
// joined=true — the in-flight job an identical concurrent submission
// collapsed onto), a suggested HTTP status, and an error for
// rejections.
func (s *Server) submit(spec exp.JobSpec, requestID string, remote obs.SpanContext) (j *Job, status int, joined bool, err error) {
	key := spec.Key()
	s.mu.Lock()
	s.AddStat(s.counter.submitted, 1)
	if s.tier.Backends {
		s.statsMu.Lock()
		s.backendCounts[specBackendLabel(spec)]++
		s.statsMu.Unlock()
	}

	if s.draining {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, false, errDraining
	}
	if s.cache != nil {
		if result, ok := s.cache.get(key); ok {
			s.AddStat(s.counter.cacheHits, 1)
			j = s.cachedJobLocked(spec, key, requestID, remote, result, CacheMemory)
			s.mu.Unlock()
			return j, http.StatusOK, false, nil
		}
		s.AddStat(s.counter.cacheMisses, 1)
	}
	if dup, ok := s.inflight[key]; ok {
		// Single-flight: a concurrent identical submission joins the
		// job already in flight instead of being rejected — the engine
		// runs once and every submitter polls or waits on the same
		// record.
		s.AddStat(s.counter.joined, 1)
		s.tier.Logger.Info("job joined in-flight duplicate",
			"job_id", dup.id, "trace_id", dup.traceID(), "request_id", requestID,
			"experiment", spec.Experiment)
		s.mu.Unlock()
		// The executor may still be deciding on the job: a joiner is
		// answered with the same outcome as the submitter it joined.
		<-dup.admitted
		if dup.refused != nil {
			return nil, dup.refusedStatus, false, dup.refused
		}
		return dup, http.StatusAccepted, true, nil
	}
	if s.tier.Store != nil {
		// The persistent tier sits under the memory tier: a hit is
		// promoted into memory and answers like any cache hit; a store
		// error (corrupt entry, unreadable mount) is a miss — the job
		// re-runs and the write-through repairs the entry. The read is
		// a small local file; holding the registration lock across it
		// keeps the miss→inflight transition atomic.
		switch result, ok, serr := s.tier.Store.Get(key); {
		case serr != nil:
			s.AddStat(s.counter.storeErrors, 1)
			s.tier.Logger.Warn("result store read failed",
				"key", key, "request_id", requestID, "err", serr.Error())
		case ok:
			s.AddStat(s.counter.storeHits, 1)
			if s.cache != nil {
				s.cache.put(key, result)
			}
			j = s.cachedJobLocked(spec, key, requestID, remote, result, CacheStore)
			s.mu.Unlock()
			return j, http.StatusOK, false, nil
		}
	}

	j = s.newJobLocked(spec, key, requestID, remote)
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.cancel = cancel
	j.admitted = make(chan struct{})
	s.inflight[key] = j
	s.mu.Unlock()

	status, err = s.exec.Admit(ctx, j)
	s.mu.Lock()
	defer s.mu.Unlock()
	defer close(j.admitted)
	if err != nil {
		// Refused: the job never existed. Ending it frees its key and
		// context; it was never in the job table.
		j.refusedStatus, j.refused = status, err
		s.endLocked(j, nil, err)
		return nil, status, false, err
	}
	s.registerLocked(j)
	return j, http.StatusAccepted, false, nil
}

// cachedJobLocked registers an already-terminal job backed by a cached
// result. src names the tier that answered (CacheMemory or CacheStore).
// Caller holds the Server mutex.
func (s *Server) cachedJobLocked(spec exp.JobSpec, key, requestID string, remote obs.SpanContext, result []byte, src string) *Job {
	j := s.newJobLocked(spec, key, requestID, remote)
	s.registerLocked(j)
	if src == CacheMemory {
		j.span.SetAttr("cache", "hit")
	} else {
		j.span.SetAttr("cache", "hit-"+src)
	}
	now := time.Now()
	j.state = StateDone
	j.cached = true
	j.cacheSrc = src
	j.started, j.finished = now, now
	j.result = result
	j.endTrace()
	close(j.done)
	s.tier.Logger.Info("job served from cache",
		"job_id", j.id, "trace_id", j.traceID(), "request_id", requestID,
		"experiment", spec.Experiment, "cache_source", src)
	return j
}

// specBackendLabel is the {backend="..."} label value a submitted spec
// tallies under: the normalized backend name, "all" for a compare run
// over every backend, or "none" for experiments with no backend knob.
func specBackendLabel(spec exp.JobSpec) string {
	if b := spec.Normalized().Backend; b != "" {
		return b
	}
	if spec.Experiment == "compare" {
		return "all"
	}
	return "none"
}

// jobID formats the sequential job identifier.
func (s *Server) jobID(seq int) string {
	return fmt.Sprintf("%s%06d", s.tier.JobPrefix, seq)
}

// newJobLocked allocates a queued job record, with the next job ID, its
// tracer and its root span; registerLocked adds it to the job table.
// With tracing disabled the job carries no tracer and every span
// operation no-ops. Caller holds the mutex.
func (s *Server) newJobLocked(spec exp.JobSpec, key, requestID string, remote obs.SpanContext) *Job {
	s.seq++
	j := &Job{
		id:        s.jobID(s.seq),
		spec:      spec,
		key:       key,
		requestID: requestID,
		state:     StateQueued,
		submitted: time.Now(),
		subs:      make(map[chan struct{}]struct{}),
		done:      make(chan struct{}),
	}
	if !s.tier.DisableTracing {
		j.tracer = obs.NewTracer(remote.TraceID, traceCap)
		j.span = j.tracer.StartSpan(remote, s.tier.RootSpan)
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("experiment", spec.Experiment)
		if s.tier.Backends {
			if b := spec.Normalized().Backend; b != "" {
				j.span.SetAttr("backend", b)
			}
		}
		if requestID != "" {
			j.span.SetAttr("request_id", requestID)
		}
	}
	return j
}

// registerLocked adds j to the job table, where clients can list and
// look it up. Caller holds the mutex.
func (s *Server) registerLocked(j *Job) {
	s.jobs[j.id] = j
	s.order = append(s.order, j)
}

// Start marks an admitted job running on worker ("" for local runs),
// closing its queue-wait span. A job started again — the remote
// executor re-routing it — keeps its state and start time. Start
// reports false, changing nothing, when the job has already ended.
func (s *Server) Start(j *Job, worker string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.terminal() {
		return false
	}
	j.worker = worker
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = time.Now()
	}
	j.queueSpan.End()
	j.notifySubs()
	return true
}

// Progress publishes a progress update to the job's subscribers.
func (s *Server) Progress(j *Job, p ProgressEvent) {
	s.mu.Lock()
	j.progress, j.hasProg = p, true
	j.notifySubs()
	s.mu.Unlock()
}

// Finish is an admitted job's terminal transition: with err nil the
// result is written through to the persistent store before it is
// published, so a process that restarts right after answering can
// still serve the same bytes; then the job ends (see endLocked) and
// the outcome is counted and logged. A failed write is logged and
// counted, not fatal. A job that already ended is left as it is.
func (s *Server) Finish(j *Job, result []byte, err error) {
	if err == nil && s.tier.Store != nil {
		if serr := s.tier.Store.Put(j.key, result); serr != nil {
			s.AddStat(s.counter.storeErrors, 1)
			s.tier.Logger.Warn("result store write failed",
				"key", j.key, "job_id", j.id, "err", serr.Error())
		} else {
			s.AddStat(s.counter.storePuts, 1)
		}
	}
	s.mu.Lock()
	ended := s.endLocked(j, result, err)
	state, wallMS := j.state, j.finished.Sub(j.started).Milliseconds()
	s.mu.Unlock()
	if !ended {
		return
	}
	ids := []any{"job_id", j.id, "trace_id", j.traceID(), "request_id", j.requestID}
	switch state {
	case StateDone:
		s.AddStat(s.counter.completed, 1)
		s.tier.Logger.Info("job finished", append(ids, "state", state, "wall_ms", wallMS)...)
	case StateCancelled:
		s.AddStat(s.counter.cancelled, 1)
		s.tier.Logger.Info("job finished", append(ids, "state", state, "wall_ms", wallMS)...)
	default:
		s.AddStat(s.counter.failed, 1)
		s.tier.Logger.Error("job failed", append(ids, "wall_ms", wallMS, "err", err.Error())...)
	}
}

// endLocked moves j to its terminal state exactly once — done with
// result when err is nil, cancelled when err is a cancellation, failed
// otherwise — releases its context, closes done and wakes every
// subscriber. It reports false when j had already ended. Caller holds
// the mutex.
func (s *Server) endLocked(j *Job, result []byte, err error) bool {
	if j.terminal() {
		return false
	}
	delete(s.inflight, j.key)
	if j.cancel != nil {
		j.cancel()
	}
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
		if s.cache != nil {
			s.cache.put(j.key, result)
		}
	case errors.Is(err, context.Canceled):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.endTrace()
	close(j.done)
	j.notifySubs()
	return true
}

// cancelLocked cancels a live job: a queued one ends now, a running
// one has its context cancelled and is ended by its executor. Caller
// holds the mutex.
func (s *Server) cancelLocked(j *Job) {
	if j.state == StateQueued {
		s.endLocked(j, nil, context.Canceled)
		s.AddStat(s.counter.cancelled, 1)
		return
	}
	j.cancel()
}

// cancelJob cancels a queued or running job. It returns the job and
// nil on success, or an error describing why nothing was cancelled.
func (s *Server) cancelJob(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, errNoSuchJob
	}
	if j.terminal() {
		return j, fmt.Errorf("job %s is already %s", id, j.state)
	}
	s.cancelLocked(j)
	return j, nil
}

var errNoSuchJob = errors.New("no such job")

// Drain stops intake and shuts the service down: new submissions get
// 503, registered jobs are given until ctx expires to finish, and
// anything still live afterwards is cancelled. Drain returns nil on a
// clean drain and an error when the grace period expired (in-flight
// simulations do not observe cancellation mid-engine-run, so a forced
// drain may abandon goroutines to process exit).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	settled := make(chan struct{})
	go func() {
		s.waitJobs()
		close(settled)
	}()
	select {
	case <-settled:
		s.baseCancel()
		s.wg.Wait()
		return nil
	case <-ctx.Done():
	}

	// Grace expired: cancel everything still alive and give the
	// executor a moment to notice before abandoning it.
	s.mu.Lock()
	forced := 0
	for _, j := range s.inflight {
		s.cancelLocked(j)
		forced++
	}
	s.mu.Unlock()
	s.baseCancel()
	stopped := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
	}
	return fmt.Errorf("drain grace period expired; cancelled %d in-flight jobs", forced)
}

// waitJobs blocks until every job is terminal, those still being
// admitted included: inflight holds exactly the live jobs.
func (s *Server) waitJobs() {
	for {
		s.mu.Lock()
		var pending *Job
		for _, j := range s.inflight {
			pending = j
			break
		}
		s.mu.Unlock()
		if pending == nil {
			return
		}
		<-pending.done
	}
}
