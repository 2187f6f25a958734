package obs

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	hdr := sc.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") {
		t.Fatalf("traceparent %q is not a 55-byte version-00 header", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	valid := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}.Traceparent()
	for _, bad := range []string{
		"",
		"00",
		valid[:54],       // truncated
		valid + "0",      // trailing garbage
		"01" + valid[2:], // unknown version
		strings.Replace(valid, "-", "_", 1),
		"00-" + strings.Repeat("0", 32) + "-" + valid[36:], // zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:],  // zero span ID
		"00-" + strings.Repeat("zz", 16) + valid[35:],      // non-hex
	} {
		if sc, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted: %+v", bad, sc)
		}
	}
}

func TestSpanParentageAndRecording(t *testing.T) {
	tr := NewTracer(TraceID{}, 16)
	root := tr.StartSpan(SpanContext{}, "job")
	root.SetAttr("job_id", "job-000001")
	child := tr.StartSpan(root.Context(), "queue.wait")
	child.End()
	root.End()
	root.End() // double End must not record twice

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	// Publication order: child ended first.
	if spans[0].Name != "queue.wait" || spans[1].Name != "job" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Fatalf("child parent = %s, want root %s", spans[0].Parent, spans[1].ID)
	}
	if !spans[1].Parent.IsZero() {
		t.Fatalf("root parent = %s, want zero", spans[1].Parent)
	}
	if spans[0].Trace != tr.TraceID() || spans[1].Trace != tr.TraceID() {
		t.Fatalf("spans carry foreign trace IDs")
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{"job_id", "job-000001"}) {
		t.Fatalf("root attrs = %+v", spans[1].Attrs)
	}
}

func TestTracerAdoptsRemoteTraceID(t *testing.T) {
	remote := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	tr := NewTracer(remote.TraceID, 8)
	root := tr.StartSpan(remote, "job")
	root.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Trace != remote.TraceID || spans[0].Parent != remote.SpanID {
		t.Fatalf("remote-parented root = %+v, want trace %s parent %s",
			spans, remote.TraceID, remote.SpanID)
	}
}

func TestContextStartSpan(t *testing.T) {
	tr := NewTracer(TraceID{}, 8)
	ctx := NewContext(context.Background(), tr)
	ctx, outer := StartSpan(ctx, "outer")
	_, inner := StartSpan(ctx, "inner")
	inner.End()
	outer.End()
	if inner.Parent != outer.ID {
		t.Fatalf("inner parent = %s, want %s", inner.Parent, outer.ID)
	}
	if FromContext(ctx) != tr {
		t.Fatalf("FromContext lost the tracer")
	}
	if SpanFromContext(ctx) != outer {
		t.Fatalf("SpanFromContext != outer span")
	}
}

func TestStartSpanDisabledIsFreeAndNil(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Fatalf("disabled StartSpan returned span=%v, changed ctx=%v", sp, ctx2 != ctx)
	}
	// The disabled path must not allocate: spans guard phase-granular
	// host code, and the guard itself has to be free.
	allocs := testing.AllocsPerRun(100, func() {
		_, sp := StartSpan(ctx, "anything")
		sp.SetAttr("k", "v")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %v per op, want 0", allocs)
	}
}

func TestTracerDropsWhenFull(t *testing.T) {
	tr := NewTracer(TraceID{}, 2)
	for i := 0; i < 5; i++ {
		tr.StartSpan(SpanContext{}, "s").End()
	}
	if got := len(tr.Spans()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if tr.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", tr.Dropped())
	}
}

// TestTracerSizedToItsSpans pins that a tracer's memory follows the
// spans it holds, not its capacity: the servers keep every job's
// tracer for as long as the job record lives.
func TestTracerSizedToItsSpans(t *testing.T) {
	tracers := make([]*Tracer, 100)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range tracers {
		tracers[i] = NewTracer(TraceID{1}, 512)
		tracers[i].StartSpan(SpanContext{}, "job").End()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(tracers)); per > 4<<10 {
		t.Fatalf("a 512-span tracer holding one span allocated %d bytes", per)
	}
	runtime.KeepAlive(tracers)
}

func TestTracerConcurrentRecording(t *testing.T) {
	tr := NewTracer(TraceID{}, 1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.StartSpan(SpanContext{}, "worker")
				sp.SetAttr("k", "v")
				sp.End()
				tr.Spans() // concurrent snapshot must be safe
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 800 {
		t.Fatalf("recorded %d spans, want 800", got)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestNilTracerAndSpanAreNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.StartSpan(SpanContext{}, "x")
	if sp != nil {
		t.Fatalf("nil tracer started a span")
	}
	sp.SetAttr("k", "v")
	sp.End()
	if tr.Spans() != nil || tr.Dropped() != 0 || !tr.TraceID().IsZero() {
		t.Fatalf("nil tracer is not inert")
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatalf("NewContext(nil) installed a tracer")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "warn": "WARN", "error": "ERROR",
	} {
		lv, ok := ParseLevel(s)
		if !ok || lv.String() != want {
			t.Errorf("ParseLevel(%q) = %v %v, want %s", s, lv, ok, want)
		}
	}
	if _, ok := ParseLevel("verbose"); ok {
		t.Errorf("ParseLevel accepted an unknown level")
	}
}

func TestSpanDurationIsMonotonic(t *testing.T) {
	tr := NewTracer(TraceID{}, 4)
	sp := tr.StartSpan(SpanContext{}, "timed")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if got := tr.Spans()[0].Dur; got < 2*time.Millisecond {
		t.Fatalf("span duration %v shorter than the slept 2ms", got)
	}
}
