package obs

import (
	"net/http"
	"testing"
)

func TestPropagateRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	h := make(http.Header)
	PropagateTraceparent(h, sc)
	got, ok := TraceparentFromHeader(h)
	if !ok || got != sc {
		t.Fatalf("round trip = %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestPropagateInvalidContextWritesNothing(t *testing.T) {
	h := make(http.Header)
	PropagateTraceparent(h, SpanContext{})
	if v := h.Get(TraceparentHeader); v != "" {
		t.Fatalf("invalid context wrote traceparent %q", v)
	}
	if _, ok := TraceparentFromHeader(h); ok {
		t.Fatalf("absent header parsed as valid context")
	}
}

func TestTraceparentFromHeaderRejectsMalformed(t *testing.T) {
	for _, v := range []string{
		"",
		"00-zz-zz-00",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
	} {
		h := make(http.Header)
		if v != "" {
			h.Set(TraceparentHeader, v)
		}
		if sc, ok := TraceparentFromHeader(h); ok {
			t.Errorf("header %q parsed as valid context %+v", v, sc)
		}
	}
}

// FuzzTraceparent holds the parser of the traceparent header any
// client may send to two properties: on any value it neither panics
// nor returns anything but a valid context or, with ok=false, the zero
// one; and an accepted value re-parses from SpanContext.Traceparent to
// the same context.
func FuzzTraceparent(f *testing.F) {
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", v, sc)
			}
			return
		}
		if sc.TraceID.IsZero() || sc.SpanID.IsZero() {
			t.Fatalf("accepted %q as %+v, which has a zero ID", v, sc)
		}
		if again, ok := ParseTraceparent(sc.Traceparent()); !ok || again != sc {
			t.Fatalf("%q parsed to %+v; its rendering %q re-parses to %+v (ok=%v)",
				v, sc, sc.Traceparent(), again, ok)
		}
	})
}
