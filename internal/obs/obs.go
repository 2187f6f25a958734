// Package obs is the observability layer: a zero-dependency span
// tracer and structured-logging helpers threaded through every unit of
// work in the system — a CLI invocation, an HTTP job, a harness
// sub-job, an experiment phase. Each unit opens a Span carrying a
// W3C-style trace context (trace ID + parent span ID), recorded into a
// bounded span store that grows as spans end, and exported as Chrome
// trace_event JSON (mergeable with the simulator's event ring), as a
// compact JSONL span log, and as a nested JSON tree for the job
// service's trace endpoint.
//
// Spans wrap host-side work at experiment/phase granularity only —
// never per-event engine code — so the simulated-cycle hot path stays
// allocation-free and every simulated metric is bit-identical whether
// tracing is on or off. When no Tracer is installed in a context,
// StartSpan returns a nil *Span whose methods no-op; the disabled path
// costs one context lookup and zero allocations.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (16 bytes, hex on the wire),
// shared by every span of one traced unit of work and by all log
// records it emits.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (8 bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a fresh random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		randRead(t[:])
	}
	return t
}

// NewSpanID returns a fresh random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		randRead(s[:])
	}
	return s
}

// randRead fills b with cryptographically random bytes. crypto/rand
// documents that Read never fails on supported platforms.
func randRead(b []byte) {
	if _, err := rand.Read(b); err != nil {
		panic("obs: crypto/rand failed: " + err.Error())
	}
}

// SpanContext is the propagatable identity of a span: what crosses
// process boundaries in a traceparent header.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether the context carries a usable trace ID.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() }

// Traceparent renders the context as a W3C traceparent header value:
// version 00, sampled flag set.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header value
// ("00-<32 hex>-<16 hex>-<2 hex>"). It returns ok=false for anything
// malformed, for an unknown version, and for all-zero trace or span
// IDs — callers treat a bad header as absent, per the spec.
func ParseTraceparent(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, false
	}
	if s[0] != '0' || s[1] != '0' || len(s) != 55 {
		// Only version 00 (fixed length) is understood.
		return sc, false
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	return sc, true
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed unit of work. Fields are written by the goroutine
// that started the span and published to the tracer's store on End;
// a nil *Span (tracing disabled) no-ops every method.
type Span struct {
	Name   string
	Trace  TraceID
	ID     SpanID
	Parent SpanID // zero for a trace root
	Start  time.Time
	Dur    time.Duration
	Attrs  []Attr

	tracer *Tracer
	ended  bool
}

// SetAttr annotates the span. No-op on a nil span, so callers need not
// guard — but should skip expensive value formatting when the span is
// nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// Context returns the span's propagatable identity (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.Trace, SpanID: s.ID}
}

// End stamps the duration and publishes the span to its tracer's
// store. Safe on a nil span; a second End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.Dur = time.Since(s.Start)
	s.tracer.record(*s)
}

// DefaultSpanCap is the default per-tracer span capacity.
const DefaultSpanCap = 4096

// Tracer collects the finished spans of one trace into a bounded
// store: a mutex-guarded slice that grows as spans end, so a tracer
// costs memory for the spans it holds, not for its capacity. Spans end
// at phase granularity, never per simulated event, so the lock is
// uncontended in practice. A full store drops further spans and counts
// them; a nil *Tracer is a disabled tracer.
type Tracer struct {
	traceID  TraceID
	capacity int

	mu      sync.Mutex
	spans   []Span
	dropped uint64
}

// NewTracer builds a tracer for one trace. A zero traceID draws a
// fresh random one; capacity <= 0 selects DefaultSpanCap.
func NewTracer(traceID TraceID, capacity int) *Tracer {
	if traceID.IsZero() {
		traceID = NewTraceID()
	}
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	return &Tracer{traceID: traceID, capacity: capacity}
}

// TraceID returns the trace this tracer collects (zero when nil).
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.traceID
}

// StartSpan opens a span as a child of parent (a zero parent starts a
// trace root; a remote parent from ParseTraceparent links the root
// under the caller's span). Nil-safe: a nil tracer returns a nil span.
func (t *Tracer) StartSpan(parent SpanContext, name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		Name:   name,
		Trace:  t.traceID,
		ID:     NewSpanID(),
		Parent: parent.SpanID,
		Start:  time.Now(),
		tracer: t,
	}
}

// record publishes one finished span into the store.
func (t *Tracer) record(sp Span) {
	if t == nil {
		return
	}
	sp.tracer = nil
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.capacity {
		t.dropped++
		return
	}
	t.spans = append(t.spans, sp)
}

// Dropped reports how many spans the full store discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Spans snapshots the finished spans in publication order. Safe to
// call while other goroutines are still recording.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Context plumbing. The tracer and the active span ride the context so
// any layer (harness, experiment phases) can open child spans without
// new parameters; absent keys mean tracing is disabled there.

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
	loggerKey
)

// NewContext installs the tracer. A nil tracer returns ctx unchanged.
func NewContext(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the installed tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// ContextWithSpan installs sp as the active span (the parent of the
// next StartSpan). A nil span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey).(*Span)
	return sp
}

// StartSpan opens a child of the context's active span on the
// context's tracer and returns a context carrying the new span. With
// no tracer installed it returns (ctx, nil) without allocating — the
// disabled path of every instrumented call site.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	if t == nil {
		return ctx, nil
	}
	sp := t.StartSpan(SpanFromContext(ctx).Context(), name)
	return context.WithValue(ctx, spanKey, sp), sp
}
