package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/exp"
)

// exportSpecs are the experiments whose exports job documents carry,
// at sizes small enough for a unit test. fork-hmmer (7.9 KB) and
// fork-all (all 15 benchmarks, 49.6 KB) are the two cluster repeat
// results BenchmarkWriteDoc measures.
var exportSpecs = []struct {
	name string
	spec exp.JobSpec
}{
	{"fork-hmmer", exp.JobSpec{Experiment: "fork", Bench: "hmmer", Warm: 20000, Measure: 40000}},
	{"fork-all", exp.JobSpec{Experiment: "fork", Warm: 2000, Measure: 4000}},
	{"spmv", exp.JobSpec{Experiment: "spmv", Matrices: 1}},
	{"sweep", exp.JobSpec{Experiment: "sweep", Points: 4, Rows: 64}},
	{"omsstress", exp.JobSpec{Experiment: "omsstress", Tenants: 3, Ops: 2000, Segments: 48}},
	{"dualcore", exp.JobSpec{Experiment: "dualcore"}},
	{"compare", exp.JobSpec{Experiment: "compare", Bench: "hmmer", Warm: 20000, Measure: 40000, Matrices: 1}},
}

// renderExport runs spec and renders its export as a served job's
// result bytes, exactly as runJob does.
func renderExport(tb testing.TB, spec exp.JobSpec) []byte {
	tb.Helper()
	out, err := spec.Run(context.Background(), exp.Pool{})
	if err != nil {
		tb.Fatalf("running %s: %v", spec.Experiment, err)
	}
	var buf bytes.Buffer
	if err := out.Export.WriteJSON(&buf); err != nil {
		tb.Fatalf("rendering %s: %v", spec.Experiment, err)
	}
	return buf.Bytes()
}

// spliceCases are hand-written results that reach every branch of
// appendResult: escaping, empty containers, nesting and whitespace.
var spliceCases = []struct{ name, result string }{
	{"html", `{"a":"<b>&amp;</b>","<k>":["x>y","&"]}`},
	{"line-separators", "{\"s\":\"a\u2028b\u2029c\",\"t\":[\"\u2028\"]}"},
	{"near-separators", "{\"s\":\"\u2027\u202a\u20ac\xe2\x80\"}"},
	{"escapes", `{"q":"say \"hi\" \\","b":"\\","u":"\u2028\u003c","e":"\"\\\"\\"}`},
	{"structural-in-strings", `{"s":"{[,:]} \" ,","t":"\"{"}`},
	{"empty", `{"o":{},"a":[],"n":[[],{}],"e":[{}],"s":""}`},
	{"empty-object", `{}`},
	{"empty-array", `[]`},
	{"deep", strings.Repeat(`[{"k":`, 120) + "1" + strings.Repeat(`}]`, 120)},
	{"whitespace", "  {\n\t\"a\" :  [ 1 ,\r\n 2 ] ,\"b\":{ } , \"c\" : [ ] ,\"d\":\"x y\"}  \n"},
	{"null", `null`},
	{"scalars", `[true,false,null,-1.5e+10,0,"str"]`},
	{"string", `"a<b"`},
	{"number", ` 42 `},
	{"invalid-utf8", "{\"s\":\"\xff\xfe\"}"},
}

// sampleDoc is a terminal job document with every optional field set.
func sampleDoc() JobDoc {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	t1, t2 := t0.Add(time.Millisecond), t0.Add(40*time.Millisecond)
	return JobDoc{
		ID: "job-000042", State: StateDone, Cached: true, CacheSource: CacheStore,
		Spec: exp.JobSpec{Experiment: "fork", Bench: "hmmer", Warm: 20000, Measure: 40000},
		Key:  strings.Repeat("ab", 32), Worker: "http://127.0.0.1:8381",
		TraceID: strings.Repeat("0f", 16), RequestID: "req<&>",
		SubmittedAt: t0, StartedAt: &t1, FinishedAt: &t2,
		Progress: &ProgressEvent{Done: 3, Total: 3},
		Spans:    []SpanSummary{{Name: "job", DurUS: 40000}, {Name: "queue.wait", StartUS: 5, DurUS: 900}},
	}
}

// checkIdentity asserts that WriteDoc and WriteDocEvent emit exactly
// what encoding/json emits for the whole document through WriteJSON
// and WriteSSE.
func checkIdentity(t *testing.T, d JobDoc) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(want, http.StatusOK, d)
	WriteDoc(got, http.StatusOK, d)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("WriteDoc answered %d %q, WriteJSON %d %q", got.Code,
			got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("WriteDoc differs from encoding/json (result %q):\n got %q\nwant %q",
			d.Result, got.Body.Bytes(), want.Body.Bytes())
	}
	var wantEv, gotEv bytes.Buffer
	if err := WriteSSE(&wantEv, StateDone, d); err != nil {
		t.Fatalf("WriteSSE: %v", err)
	}
	if err := WriteDocEvent(&gotEv, StateDone, d); err != nil {
		t.Fatalf("WriteDocEvent: %v", err)
	}
	if !bytes.Equal(gotEv.Bytes(), wantEv.Bytes()) {
		t.Fatalf("WriteDocEvent differs from encoding/json (result %q):\n got %q\nwant %q",
			d.Result, gotEv.Bytes(), wantEv.Bytes())
	}
}

// TestWriteDocMatchesEncodingJSON is the splice's byte-identity table:
// real exports as served, compacted and oddly re-indented, the
// hand-written edge cases, and no result at all, each in a full and a
// minimal document.
func TestWriteDocMatchesEncodingJSON(t *testing.T) {
	minimal := JobDoc{ID: "job-000001", State: StateDone, Spec: exp.JobSpec{Experiment: "dualcore"}}
	check := func(t *testing.T, result []byte) {
		for _, d := range []JobDoc{sampleDoc(), minimal} {
			d.Result = result
			checkIdentity(t, d)
		}
	}
	for _, c := range exportSpecs {
		t.Run(c.name, func(t *testing.T) {
			raw := renderExport(t, c.spec)
			var compact, odd bytes.Buffer
			if err := json.Compact(&compact, raw); err != nil {
				t.Fatal(err)
			}
			if err := json.Indent(&odd, raw, "\t", " \t "); err != nil {
				t.Fatal(err)
			}
			check(t, raw)
			check(t, compact.Bytes())
			check(t, odd.Bytes())
		})
	}
	for _, c := range spliceCases {
		t.Run(c.name, func(t *testing.T) {
			if !json.Valid([]byte(c.result)) {
				t.Fatalf("case %s is not valid JSON", c.name)
			}
			check(t, []byte(c.result))
		})
	}
	t.Run("no-result", func(t *testing.T) { check(t, nil) })
}

// FuzzWriteDoc checks the splice against encoding/json on every valid
// result and, on invalid ones, only that it returns.
func FuzzWriteDoc(f *testing.F) {
	for _, c := range spliceCases {
		f.Add([]byte(c.result))
	}
	f.Fuzz(func(t *testing.T, result []byte) {
		if !json.Valid(result) {
			appendResult(nil, result, false)
			appendResult(nil, result, true)
			return
		}
		d := sampleDoc()
		d.Result = result
		checkIdentity(t, d)
	})
}

// discardResponse is an http.ResponseWriter that drops the body.
type discardResponse struct{ h http.Header }

func (w discardResponse) Header() http.Header         { return w.h }
func (w discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (w discardResponse) WriteHeader(int)             {}

// BenchmarkWriteDoc times one job document with a result, indented
// and as an SSE event, against encoding/json rendering the same
// document.
func BenchmarkWriteDoc(b *testing.B) {
	for _, c := range exportSpecs[:2] {
		d := sampleDoc()
		d.Result = renderExport(b, c.spec)
		w := discardResponse{h: http.Header{}}
		for _, v := range []struct {
			name  string
			write func()
		}{
			{"doc", func() { WriteDoc(w, http.StatusOK, d) }},
			{"doc-encoding-json", func() { WriteJSON(w, http.StatusOK, d) }},
			{"sse", func() { WriteDocEvent(io.Discard, StateDone, d) }},          //nolint:errcheck
			{"sse-encoding-json", func() { WriteSSE(io.Discard, StateDone, d) }}, //nolint:errcheck
		} {
			b.Run(c.name+"/"+v.name, func(b *testing.B) {
				b.SetBytes(int64(len(d.Result)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					v.write()
				}
			})
		}
	}
}
