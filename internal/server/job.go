package server

import (
	"container/list"
	"context"
	"encoding/json"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
)

// Job states. A job moves queued → running → one terminal state;
// cancellation can short-circuit from either non-terminal state.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Cache sources: which tier answered a cached submission.
const (
	CacheMemory = "memory" // the in-process LRU
	CacheStore  = "store"  // the persistent result store
)

// ProgressEvent is one structured progress update: completed sub-jobs
// of the experiment's harness sweep (a fork suite counts benchmarks, a
// sweep counts points, …).
type ProgressEvent struct {
	Done   int `json:"done"`
	Total  int `json:"total"`
	Failed int `json:"failed"`
}

// Job is a frontend's record of one submission, on either tier. The
// header is immutable; every other field is guarded by the Server's
// mutex, and an executor outside this package changes them only
// through the Server's Start, Progress and Finish.
type Job struct {
	id        string
	spec      exp.JobSpec
	key       string
	requestID string

	state     string
	cached    bool
	cacheSrc  string // CacheMemory or CacheStore, "" when not cached
	worker    string // remote executor: the shard running (or that ran) the job
	errMsg    string
	submitted time.Time
	started   time.Time
	finished  time.Time
	progress  ProgressEvent
	hasProg   bool
	result    []byte // rendered sim.Export JSON, exactly as the CLI's -json writes it

	// tracer records the job's spans; span is the root span, named by
	// the tier, and queueSpan the local executor's submit→dequeue wait.
	// spans/dropped snapshot the trace at the terminal transition (nil
	// until then). All nil when tracing is disabled — every obs
	// operation on them no-ops.
	tracer    *obs.Tracer
	span      *obs.Span
	queueSpan *obs.Span
	spans     []obs.Span
	dropped   uint64

	elem   *list.Element              // place in the Server's listing; nil until registered
	cancel context.CancelFunc         // cancels the context the executor was handed
	subs   map[chan struct{}]struct{} // SSE subscribers (signal channels, cap 1)
	done   chan struct{}              // closed exactly once on terminal transition

	// admitted is closed once the executor has taken or refused the job
	// (nil for cached jobs, which no executor sees). A refused job keeps
	// the status and error its submitters are answered with.
	admitted      chan struct{}
	refusedStatus int
	refused       error
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted spec.
func (j *Job) Spec() exp.JobSpec { return j.spec }

// Key returns the spec's canonical digest.
func (j *Job) Key() string { return j.key }

// RequestID returns the ID of the request that submitted the job.
func (j *Job) RequestID() string { return j.requestID }

// StartSpan opens a span under the job's root span (nil, a no-op span,
// when tracing is disabled).
func (j *Job) StartSpan(name string) *obs.Span {
	return j.tracer.StartSpan(j.span.Context(), name)
}

// traceID renders the job's trace ID, "" when tracing is disabled.
func (j *Job) traceID() string {
	if j.tracer == nil {
		return ""
	}
	return j.tracer.TraceID().String()
}

// endTrace closes any still-open lifecycle spans and snapshots the
// trace; it runs exactly once, at the job's terminal transition.
// Span.End is idempotent, so spans already closed on the happy path
// (queue.wait at dequeue, run/encode in the local executor) are
// unaffected.
// Caller holds the Server mutex.
func (j *Job) endTrace() {
	if j.tracer == nil {
		return
	}
	j.queueSpan.End()
	j.span.End()
	j.spans = j.tracer.Spans()
	j.dropped = j.tracer.Dropped()
}

// liveSpans snapshots the recorded spans: the terminal snapshot when
// the job is finished, the tracer's current contents while it runs.
// Caller holds the Server mutex.
func (j *Job) liveSpans() []obs.Span {
	if j.spans != nil {
		return j.spans
	}
	return j.tracer.Spans()
}

// terminal reports whether the job reached a final state.
func (j *Job) terminal() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// SpanSummary is one completed span in a job document: name plus
// timing, offsets in microseconds from the trace's first span.
type SpanSummary struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

// JobDoc is the wire representation of a job (see docs/API.md).
// Result must stay the last field: WriteDoc and WriteDocEvent splice it
// in after encoding/json has rendered the others.
type JobDoc struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	CacheSource string          `json:"cache_source,omitempty"` // memory | store, cached jobs only
	Spec        exp.JobSpec     `json:"spec"`
	Key         string          `json:"key"`
	Worker      string          `json:"worker,omitempty"` // coordinator-routed jobs: the shard's URL
	Error       string          `json:"error,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	RequestID   string          `json:"request_id,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
	Progress    *ProgressEvent  `json:"progress,omitempty"`
	Spans       []SpanSummary   `json:"spans,omitempty"` // terminal jobs only
	Result      json.RawMessage `json:"result,omitempty"`
}

// doc renders the job for the wire. withResult controls whether the
// (potentially large) result document rides along; listings omit it.
// Caller holds the Server mutex.
func (j *Job) doc(withResult bool) JobDoc {
	d := JobDoc{
		ID:          j.id,
		State:       j.state,
		Cached:      j.cached,
		CacheSource: j.cacheSrc,
		Spec:        j.spec,
		Key:         j.key,
		Worker:      j.worker,
		Error:       j.errMsg,
		TraceID:     j.traceID(),
		RequestID:   j.requestID,
		SubmittedAt: j.submitted,
	}
	if len(j.spans) > 0 {
		base := j.spans[0].Start
		for _, sp := range j.spans {
			if sp.Start.Before(base) {
				base = sp.Start
			}
		}
		d.Spans = make([]SpanSummary, len(j.spans))
		for i, sp := range j.spans {
			d.Spans[i] = SpanSummary{
				Name:    sp.Name,
				StartUS: sp.Start.Sub(base).Microseconds(),
				DurUS:   sp.Dur.Microseconds(),
			}
		}
	}
	if !j.started.IsZero() {
		t := j.started
		d.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.FinishedAt = &t
	}
	if j.hasProg {
		p := j.progress
		d.Progress = &p
	}
	if withResult && j.result != nil {
		d.Result = json.RawMessage(j.result)
	}
	return d
}

// notifySubs pokes every subscriber without blocking: each channel has
// capacity one, so a slow reader coalesces updates instead of stalling
// the worker. Caller holds the Server mutex.
func (j *Job) notifySubs() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}
