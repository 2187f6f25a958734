package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/harness"
	"repro/internal/obs"
)

// Runner executes one validated job spec. The default is
// exp.JobSpec.Run; tests substitute stubs to script slow, failing or
// progress-reporting jobs without simulating.
type Runner func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error)

// Config sizes the service. The zero value is usable: every field has
// a production default.
type Config struct {
	// Workers is the number of jobs simulated concurrently
	// (0 = GOMAXPROCS). Each job may additionally fan out its own
	// simulations per its spec's parallel field.
	Workers int

	// QueueDepth bounds how many accepted jobs may wait behind the
	// running ones (0 = 16). A full queue rejects submissions with
	// 429 + Retry-After instead of buffering without bound.
	QueueDepth int

	// JobTimeout caps one job's wall clock (0 = unbounded). Enforced
	// by the harness's per-job timeout; an expired job fails with
	// context.DeadlineExceeded.
	JobTimeout time.Duration

	// CacheSize bounds the result cache in entries (0 = 128,
	// negative disables caching).
	CacheSize int

	// SnapshotCacheSize bounds the warm-state snapshot cache in family
	// entries (0 = 32, negative disables snapshot reuse). Cached family
	// snapshots let jobs that share a configuration family skip warm-up
	// simulation; results are bit-identical either way.
	SnapshotCacheSize int

	// Runner overrides job execution (nil = exp.JobSpec.Run).
	Runner Runner

	// Store is the persistent result tier under the LRU cache (nil =
	// none). Completed results are written through to it, and an LRU
	// miss consults it before running the engine, so cache hits
	// survive restarts and are deduplicated across every process
	// sharing the store.
	Store ResultStore

	// Logger receives structured log records for submissions, job
	// lifecycle transitions and HTTP requests (nil = records are
	// discarded).
	Logger *slog.Logger

	// DisableTracing turns per-job span recording off; jobs then carry
	// no trace and GET /v1/jobs/{id}/trace answers 404.
	DisableTracing bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.SnapshotCacheSize == 0 {
		c.SnapshotCacheSize = 32
	}
	if c.Runner == nil {
		c.Runner = func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
			return spec.Run(ctx, pool)
		}
	}
	return c
}

// local is the executor behind `serve`: a bounded queue drained by a
// fixed pool of workers, each running its job through the harness on
// this machine.
type local struct {
	s       *Server
	queue   chan queued
	runner  Runner
	timeout time.Duration
	// snapshots caches warm family state across jobs: two sweep jobs
	// over the same matrix dimension share one warm-up. Entries are
	// immutable, so concurrent jobs fork the same family safely.
	snapshots *exp.SnapshotCache
}

// queued is an admitted job waiting for a worker, with the context
// its run observes.
type queued struct {
	ctx context.Context
	j   *Job
}

// New builds the server with a local executor and starts its worker
// pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	l := &local{
		queue:   make(chan queued, cfg.QueueDepth),
		runner:  cfg.Runner,
		timeout: cfg.JobTimeout,
	}
	if cfg.SnapshotCacheSize > 0 {
		l.snapshots = exp.NewSnapshotCache(cfg.SnapshotCacheSize)
	}
	l.s = NewFrontend(Tier{
		JobPrefix: "job-", RootSpan: "job", StatPrefix: "server.",
		CacheSize: cfg.CacheSize, Store: cfg.Store, Backends: true,
		RetryAfter: 2 * time.Second, Logger: cfg.Logger, DisableTracing: cfg.DisableTracing,
	}, l)
	for i := 0; i < cfg.Workers; i++ {
		l.s.Go(l.work)
	}
	return l.s
}

// work is one pool worker: it runs queued jobs until Drain ends.
func (l *local) work(ctx context.Context) {
	for {
		select {
		case q := <-l.queue:
			l.run(q.ctx, q.j)
		case <-ctx.Done():
			return
		}
	}
}

// Admit queues the job, or rejects it with 429 when the queue is full.
// The lock keeps a worker from dequeuing the job before its queue-wait
// span exists.
func (l *local) Admit(ctx context.Context, j *Job) (int, error) {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case l.queue <- queued{ctx, j}:
	default:
		s.AddStat("server.queue_rejections", 1)
		return http.StatusTooManyRequests, fmt.Errorf("job queue is full (%d waiting)", cap(l.queue))
	}
	j.span.SetAttr("cache", "miss")
	j.queueSpan = j.StartSpan("queue.wait")
	s.tier.Logger.Info("job accepted",
		"job_id", j.id, "trace_id", j.traceID(), "request_id", j.requestID,
		"experiment", j.spec.Experiment, "queue_depth", len(l.queue))
	return http.StatusAccepted, nil
}

// run executes one dequeued job through the harness: a single harness
// job wraps the runner, contributing panic→error conversion and the
// per-job timeout, while the experiment underneath fans its own
// simulations across the spec's parallelism.
func (l *local) run(ctx context.Context, j *Job) {
	s := l.s
	if !s.Start(j, "") { // cancelled while waiting
		return
	}
	queueWait := j.started.Sub(j.submitted)
	s.AddStat("server.engine_runs", 1)
	s.observe("server.queue_wait_ms", uint64(queueWait.Milliseconds()))

	// The runner's context carries the job trace and a job-scoped
	// logger, so harness.job spans and experiment phase spans nest
	// under this "run" span and every log record downstream is tagged
	// with the job's identifiers.
	logger := s.tier.Logger.With(
		"job_id", j.id, "trace_id", j.traceID(), "request_id", j.requestID)
	runSpan := j.StartSpan("run")
	ctx = obs.WithLogger(ctx, logger)
	if j.tracer != nil {
		ctx = obs.NewContext(ctx, j.tracer)
		ctx = obs.ContextWithSpan(ctx, runSpan)
	}
	logger.Info("job dequeued", "queue_wait_ms", queueWait.Milliseconds())

	pool := exp.Pool{
		Parallel:  1, // overridden by the spec's parallel field when set
		Snapshots: l.snapshots,
		OnProgress: func(done, total, failed int) {
			s.Progress(j, ProgressEvent{Done: done, Total: total, Failed: failed})
		},
	}
	results := harness.Run(ctx, harness.Options{Parallel: 1, Timeout: l.timeout},
		[]harness.Job[*exp.JobOutput]{func(ctx context.Context) (*exp.JobOutput, error) {
			return l.runner(ctx, j.spec, pool)
		}})
	out, err := results[0].Value, results[0].Err
	runSpan.End()

	var rendered []byte
	if err == nil && out != nil && out.Export != nil {
		encSpan := j.StartSpan("encode")
		var buf bytes.Buffer
		if werr := out.Export.WriteJSON(&buf); werr != nil {
			err = fmt.Errorf("rendering result: %w", werr)
		} else {
			rendered = buf.Bytes()
		}
		encSpan.End()
	} else if err == nil {
		err = errors.New("runner returned no result")
	}

	s.Finish(j, rendered, err)
	s.observe("server.job_wall_ms", uint64(j.finished.Sub(j.started).Milliseconds()))
	if err == nil && out.Stats != nil {
		s.statsMu.Lock()
		s.stats.Merge(out.Stats)
		s.statsMu.Unlock()
	}
}

// healthDoc reports the process's live state: queue occupancy, job
// counts by phase, and whether a drain has begun.
type healthDoc struct {
	Status        string `json:"status"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Queued        int    `json:"queued"`
	Running       int    `json:"running"`
	Draining      bool   `json:"draining"`
}

// Health adds the queue's occupancy; a local executor is always ready.
func (l *local) Health(h Health) (any, bool) {
	return healthDoc{
		Status:        h.Status,
		QueueDepth:    len(l.queue),
		QueueCapacity: cap(l.queue),
		Queued:        h.Queued,
		Running:       h.Running,
		Draining:      h.Draining,
	}, true
}

// Routes adds the span-trace endpoint.
func (l *local) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/jobs/{id}/trace", l.s.handleTrace)
}

// WriteMetrics renders the live queue gauges and the snapshot cache's
// reuse counters.
func (l *local) WriteMetrics(w io.Writer, r *http.Request) {
	fmt.Fprintf(w, "# HELP overlaysim_server_queue_depth jobs waiting in the bounded queue\n"+
		"# TYPE overlaysim_server_queue_depth gauge\noverlaysim_server_queue_depth %d\n",
		len(l.queue))
	fmt.Fprintf(w, "# HELP overlaysim_server_queue_capacity bounded queue capacity\n"+
		"# TYPE overlaysim_server_queue_capacity gauge\noverlaysim_server_queue_capacity %d\n",
		cap(l.queue))
	if l.snapshots != nil {
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_hits warm-state family lookups served from cache\n"+
			"# TYPE overlaysim_server_snapshot_cache_hits counter\noverlaysim_server_snapshot_cache_hits %d\n",
			l.snapshots.Hits())
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_misses warm-state family lookups that built a snapshot\n"+
			"# TYPE overlaysim_server_snapshot_cache_misses counter\noverlaysim_server_snapshot_cache_misses %d\n",
			l.snapshots.Misses())
		fmt.Fprintf(w, "# HELP overlaysim_server_snapshot_cache_entries cached warm-state families\n"+
			"# TYPE overlaysim_server_snapshot_cache_entries gauge\noverlaysim_server_snapshot_cache_entries %d\n",
			l.snapshots.Len())
	}
}

// TraceDoc is the wire form of a job's span trace: identifiers plus
// the recorded spans nested by parentage (see docs/OBSERVABILITY.md).
type TraceDoc struct {
	JobID     string          `json:"job_id"`
	TraceID   string          `json:"trace_id"`
	RequestID string          `json:"request_id,omitempty"`
	State     string          `json:"state"`
	Dropped   uint64          `json:"dropped_spans,omitempty"`
	Spans     []*obs.SpanNode `json:"spans"`
}

// handleTrace serves the job's span tree. Running jobs answer with the
// spans recorded so far (the still-open root appears once the job
// finishes); disabled tracing answers 404.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	doc := TraceDoc{
		JobID:     j.id,
		TraceID:   j.traceID(),
		RequestID: j.requestID,
		State:     j.state,
	}
	var spans []obs.Span
	if j.tracer != nil {
		spans = j.liveSpans()
		doc.Dropped = j.tracer.Dropped()
	}
	s.mu.Unlock()
	if j.tracer == nil {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("tracing is disabled; job %s carries no trace", j.id), j.id)
		return
	}
	doc.Spans = obs.BuildTree(spans)
	if doc.Spans == nil {
		doc.Spans = []*obs.SpanNode{}
	}
	WriteJSON(w, http.StatusOK, doc)
}
