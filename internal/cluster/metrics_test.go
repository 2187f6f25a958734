package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/sim"
)

func parseExposition(t *testing.T, text string) scrape {
	t.Helper()
	samples, types, err := sim.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parsing exposition: %v\n%s", err, text)
	}
	return scrape{samples: samples, types: types}
}

// TestMergeScrapesSumsCounters proves the fleet aggregate is the sum
// of worker registries, including labelled series.
func TestMergeScrapesSumsCounters(t *testing.T) {
	a := parseExposition(t, `# TYPE overlaysim_server_engine_runs counter
overlaysim_server_engine_runs 3
# TYPE overlaysim_server_http_responses_total counter
overlaysim_server_http_responses_total{code="200"} 5
overlaysim_server_http_responses_total{code="429"} 1
`)
	b := parseExposition(t, `# TYPE overlaysim_server_engine_runs counter
overlaysim_server_engine_runs 4
# TYPE overlaysim_server_http_responses_total counter
overlaysim_server_http_responses_total{code="200"} 7
`)
	var out bytes.Buffer
	writeMerged(&out, mergeScrapes([]scrape{a, b}))
	merged := parseExposition(t, out.String())

	got := map[string]float64{}
	for _, s := range merged.samples {
		got[s.Name+"{"+s.LabelVal+"}"] = s.Value
	}
	want := map[string]float64{
		"overlaysim_server_engine_runs{}":             7,
		"overlaysim_server_http_responses_total{200}": 12,
		"overlaysim_server_http_responses_total{429}": 1,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v\n%s", k, got[k], v, out.String())
		}
	}
	if merged.types["overlaysim_server_engine_runs"] != "counter" {
		t.Errorf("TYPE declaration lost: %v", merged.types)
	}
}

// TestMergeScrapesRecumulatesHistograms is the subtle case: workers
// emit only their own non-empty cumulative buckets, so the merge must
// de-cumulate, sum, and re-cumulate over the union of bounds. Worker
// A has 2 samples ≤4; worker B has 3 samples ≤8 (none ≤4). A naive
// per-le sum would report le="8" as 3, silently losing A's samples
// from that bound.
func TestMergeScrapesRecumulatesHistograms(t *testing.T) {
	a := parseExposition(t, `# TYPE overlaysim_server_queue_wait_ms histogram
overlaysim_server_queue_wait_ms_bucket{le="4"} 2
overlaysim_server_queue_wait_ms_bucket{le="+Inf"} 2
overlaysim_server_queue_wait_ms_sum 6
overlaysim_server_queue_wait_ms_count 2
`)
	b := parseExposition(t, `# TYPE overlaysim_server_queue_wait_ms histogram
overlaysim_server_queue_wait_ms_bucket{le="8"} 3
overlaysim_server_queue_wait_ms_bucket{le="+Inf"} 3
overlaysim_server_queue_wait_ms_sum 18
overlaysim_server_queue_wait_ms_count 3
`)
	var out bytes.Buffer
	writeMerged(&out, mergeScrapes([]scrape{a, b}))
	merged := parseExposition(t, out.String())

	buckets := map[string]float64{}
	var sum, count float64
	for _, s := range merged.samples {
		switch {
		case s.Le != "":
			buckets[s.Le] = s.Value
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s.Value
		case strings.HasSuffix(s.Name, "_count"):
			count = s.Value
		}
	}
	if buckets["4"] != 2 || buckets["8"] != 5 || buckets["+Inf"] != 5 {
		t.Errorf("buckets = %v, want le4=2 le8=5 +Inf=5\n%s", buckets, out.String())
	}
	if sum != 24 || count != 5 {
		t.Errorf("sum/count = %v/%v, want 24/5", sum, count)
	}
	// Cumulative bucket order in the output: ascending, +Inf last.
	text := out.String()
	i4 := strings.Index(text, `le="4"`)
	i8 := strings.Index(text, `le="8"`)
	iInf := strings.Index(text, `le="+Inf"`)
	if i4 < 0 || i8 < 0 || iInf < 0 || !(i4 < i8 && i8 < iInf) {
		t.Errorf("bucket order wrong in output:\n%s", text)
	}
}

func TestMergeScrapesSingleWorkerIsIdentity(t *testing.T) {
	a := parseExposition(t, `# TYPE overlaysim_sim_stub_runs counter
overlaysim_sim_stub_runs 9
# TYPE overlaysim_server_job_wall_ms histogram
overlaysim_server_job_wall_ms_bucket{le="16"} 1
overlaysim_server_job_wall_ms_bucket{le="+Inf"} 4
overlaysim_server_job_wall_ms_sum 100
overlaysim_server_job_wall_ms_count 4
`)
	var out bytes.Buffer
	writeMerged(&out, mergeScrapes([]scrape{a}))
	merged := parseExposition(t, out.String())
	got := map[string]float64{}
	for _, s := range merged.samples {
		got[s.Name+"{"+s.LabelVal+"}"] = s.Value
	}
	for k, v := range map[string]float64{
		"overlaysim_sim_stub_runs{}":                 9,
		"overlaysim_server_job_wall_ms_bucket{16}":   1,
		"overlaysim_server_job_wall_ms_bucket{+Inf}": 4,
		"overlaysim_server_job_wall_ms_sum{}":        100,
		"overlaysim_server_job_wall_ms_count{}":      4,
	} {
		if got[k] != v {
			t.Errorf("%s = %v, want %v\n%s", k, got[k], v, out.String())
		}
	}
}

// TestMalformedScrapeCountsAsError: a worker whose /metrics body does
// not parse is skipped and counted, and the coordinator still answers.
// The line below once panicked the parser, and net/http's recovery
// turned the coordinator's whole scrape into a dropped connection.
func TestMalformedScrapeCountsAsError(t *testing.T) {
	_, good, _ := newTestWorker(t, server.Config{Workers: 1, Runner: (&countingRunner{}).run})
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			io.WriteString(w, `x{a="} 1`+"\n") //nolint:errcheck
		}
	}))
	defer bad.Close()
	_, cts := newTestCoordinator(t, Config{Workers: []string{good.URL, bad.URL}})

	status, raw := getBody(t, cts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("coordinator /metrics: status %d\n%s", status, raw)
	}
	if !strings.Contains(string(raw), "\noverlaysim_coord_scrape_errors 1\n") {
		t.Errorf("malformed worker scrape not counted:\n%s", raw)
	}
	if _, _, err := sim.ParsePrometheus(bytes.NewReader(raw)); err != nil {
		t.Errorf("coordinator /metrics does not parse: %v\n%s", err, raw)
	}
}

// FuzzScrapeMerge holds the coordinator's scrape path — a worker's
// /metrics body parsed, merged into a fleet of two such workers and
// rendered — to two properties: no input panics it, and the rendering
// of every body the parser accepts parses again.
func FuzzScrapeMerge(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		samples, types, err := sim.ParsePrometheus(bytes.NewReader(raw))
		if err != nil {
			return
		}
		sc := scrape{samples: samples, types: types}
		var out bytes.Buffer
		writeMerged(&out, mergeScrapes([]scrape{sc, sc}))
		if _, _, err := sim.ParsePrometheus(&out); err != nil {
			t.Fatalf("merged rendering does not parse: %v\n%s", err, out.String())
		}
	})
}

// workerScrape returns the real worker /metrics body held in the
// FuzzScrapeMerge seed corpus.
func workerScrape(tb testing.TB) []byte {
	tb.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzScrapeMerge", "worker-scrape"))
	if err != nil {
		tb.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		tb.Fatalf("seed corpus entry: %v", err)
	}
	return []byte(body)
}

// TestParseWorkerScrapeAllocs bounds what the coordinator allocates per
// worker on every GET /metrics: parsing a real 13 KB scrape must not
// pay for the parser's 1 MiB line limit up front.
func TestParseWorkerScrapeAllocs(t *testing.T) {
	body := workerScrape(t)
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := sim.ParsePrometheus(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least >= 256<<10 {
		t.Errorf("parsing a %d-byte scrape allocates %d bytes, want under 256 KiB", len(body), least)
	}
}

// parsedScrape keeps BenchmarkParseWorkerScrape's result alive.
var parsedScrape []sim.PromSample

// BenchmarkParseWorkerScrape times the coordinator's per-worker parse
// of a real 13 KB /metrics body.
func BenchmarkParseWorkerScrape(b *testing.B) {
	body := workerScrape(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if parsedScrape, _, err = sim.ParsePrometheus(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}
