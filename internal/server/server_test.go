package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/sim"
)

// stubOutput fabricates a small deterministic result for a spec so
// tests can exercise the job machinery without simulating.
func stubOutput(spec exp.JobSpec) *exp.JobOutput {
	ex := sim.NewExport("stub-" + spec.Experiment)
	st := &sim.Stats{}
	st.Add("sim.stub_runs", 1)
	return &exp.JobOutput{Export: ex, Stats: st}
}

// countingRunner returns instantly-successful stub results and counts
// engine invocations.
type countingRunner struct {
	mu   sync.Mutex
	runs int
}

func (c *countingRunner) run(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
	c.mu.Lock()
	c.runs++
	c.mu.Unlock()
	return stubOutput(spec), nil
}

func (c *countingRunner) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
		ts.Close()
	})
	return s, ts
}

// sweepSpec builds a valid spec whose cache key varies with rows.
func sweepSpec(rows int) string {
	return fmt.Sprintf(`{"experiment":"sweep","points":2,"rows":%d}`, rows)
}

func postSpec(t *testing.T, ts *httptest.Server, body string, wait bool) (int, JobDoc, http.Header) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=true"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var doc JobDoc
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("decoding job doc from %q: %v", raw, err)
		}
	}
	return resp.StatusCode, doc, resp.Header
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, raw
}

func TestSubmitWaitAndCacheHit(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 2, Runner: runner.run})

	status, doc, _ := postSpec(t, ts, sweepSpec(64), true)
	if status != http.StatusOK {
		t.Fatalf("first submit: status = %d, want 200", status)
	}
	if doc.State != StateDone || doc.Cached {
		t.Fatalf("first submit: state = %q cached = %v, want done/false", doc.State, doc.Cached)
	}
	if len(doc.Result) == 0 {
		t.Fatalf("first submit: no result in completed job doc")
	}

	// An identical spec — even spelled with explicit defaults and a
	// different parallel hint — is served out of cache without another
	// engine run.
	status, dup, _ := postSpec(t, ts, `{"experiment":"sweep","points":2,"rows":64,"parallel":4}`, false)
	if status != http.StatusOK {
		t.Fatalf("duplicate submit: status = %d, want 200", status)
	}
	if dup.State != StateDone || !dup.Cached {
		t.Fatalf("duplicate submit: state = %q cached = %v, want done/true", dup.State, dup.Cached)
	}
	if string(dup.Result) != string(doc.Result) {
		t.Fatalf("cached result differs from original")
	}
	if got := runner.count(); got != 1 {
		t.Fatalf("engine ran %d times, want 1 (duplicate must hit the cache)", got)
	}

	// The result endpoint serves the raw export bytes.
	code, raw := getBody(t, ts.URL+"/v1/jobs/"+doc.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result: status = %d, want 200", code)
	}
	var indented json.RawMessage
	if err := json.Unmarshal(raw, &indented); err != nil {
		t.Fatalf("result is not JSON: %v", err)
	}
	if !strings.Contains(string(raw), `"command": "stub-sweep"`) {
		t.Fatalf("result lacks export command: %s", raw)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Runner: (&countingRunner{}).run})
	for _, body := range []string{
		`{`,
		`{"experiment":"warp"}`,
		`{"experiment":"sweep","bogus":1}`,
		`{"experiment":"sweep","points":1}`,
		`{"experiment":"fork","rows":9}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %s: status = %d, want 400", body, resp.StatusCode)
			continue
		}
		var e struct {
			Error    string   `json:"error"`
			Problems []string `json:"problems"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || len(e.Problems) == 0 {
			t.Errorf("spec %s: error body %q lacks problems list", body, raw)
		}
	}
}

func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubOutput(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Runner: runner})

	// First job occupies the only worker, second fills the queue.
	status, _, _ := postSpec(t, ts, sweepSpec(8), false)
	if status != http.StatusAccepted {
		t.Fatalf("job 1: status = %d, want 202", status)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatalf("worker never started job 1")
	}
	status, _, _ = postSpec(t, ts, sweepSpec(16), false)
	if status != http.StatusAccepted {
		t.Fatalf("job 2: status = %d, want 202", status)
	}

	status, _, hdr := postSpec(t, ts, sweepSpec(24), false)
	if status != http.StatusTooManyRequests {
		t.Fatalf("job 3: status = %d, want 429", status)
	}
	if hdr.Get("Retry-After") != "2" {
		t.Fatalf("Retry-After = %q, want %q", hdr.Get("Retry-After"), "2")
	}

	// A rejected job leaves no record behind.
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("registered jobs = %d, want 2 (429 must roll back)", n)
	}

	close(release)
}

// TestDuplicateInFlightSingleFlight proves concurrent identical
// submissions collapse onto one job: the second submitter gets the
// in-flight job back (202 + X-Overlaysim-Singleflight) rather than a
// rejection, both see the same result, and the engine runs exactly
// once.
func TestDuplicateInFlightSingleFlight(t *testing.T) {
	release := make(chan struct{})
	runner := &countingRunner{}
	blocking := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		select {
		case <-release:
			return runner.run(ctx, spec, pool)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: blocking})

	status, first, _ := postSpec(t, ts, sweepSpec(32), false)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status = %d, want 202", status)
	}
	// The duplicate joins the leader while it is still in flight —
	// even spelled with a different execution hint (same canonical key).
	status, dup, hdr := postSpec(t, ts, `{"experiment":"sweep","points":2,"rows":32,"parallel":3}`, false)
	if status != http.StatusAccepted {
		t.Fatalf("duplicate submit: status = %d, want 202 (single-flight join)", status)
	}
	if dup.ID != first.ID {
		t.Fatalf("duplicate got job %s, want the in-flight job %s", dup.ID, first.ID)
	}
	if got := hdr.Get("X-Overlaysim-Singleflight"); got != first.ID {
		t.Fatalf("X-Overlaysim-Singleflight = %q, want %q", got, first.ID)
	}

	// A waiting duplicate blocks until the shared job finishes, then
	// carries the result.
	done := make(chan JobDoc, 1)
	go func() {
		_, doc, _ := postSpec(t, ts, sweepSpec(32), true)
		done <- doc
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter subscribe
	close(release)
	select {
	case doc := <-done:
		if doc.State != StateDone || len(doc.Result) == 0 {
			t.Fatalf("joined waiter doc: state %q, %d result bytes", doc.State, len(doc.Result))
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("joined waiter never unblocked")
	}
	if got := runner.count(); got != 1 {
		t.Fatalf("engine ran %d times, want 1 (single-flight)", got)
	}
}

func TestLookupErrors(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubOutput(spec), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	if code, _ := getBody(t, ts.URL+"/v1/jobs/job-999999"); code != http.StatusNotFound {
		t.Fatalf("GET unknown job: status = %d, want 404", code)
	}

	_, doc, _ := postSpec(t, ts, sweepSpec(40), false)
	<-started
	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+doc.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("GET result of running job: status = %d, want 409", code)
	}
	close(release)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	runner := &countingRunner{}
	blocking := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		started <- struct{}{}
		select {
		case <-release:
			return runner.run(ctx, spec, pool)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Runner: blocking})

	_, run, _ := postSpec(t, ts, sweepSpec(48), false)
	<-started
	_, queued, _ := postSpec(t, ts, sweepSpec(56), false)

	del := func(id string) (int, JobDoc) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE %s: %v", id, err)
		}
		defer resp.Body.Close()
		var doc JobDoc
		json.NewDecoder(resp.Body).Decode(&doc) //nolint:errcheck
		return resp.StatusCode, doc
	}

	// Cancelling a queued job is an immediate terminal transition.
	code, doc := del(queued.ID)
	if code != http.StatusAccepted || doc.State != StateCancelled {
		t.Fatalf("cancel queued: status = %d state = %q, want 202/cancelled", code, doc.State)
	}
	// Cancelling a running job asks the worker to stop.
	code, _ = del(run.ID)
	if code != http.StatusAccepted {
		t.Fatalf("cancel running: status = %d, want 202", code)
	}
	s.mu.Lock()
	j := s.jobs[run.ID]
	s.mu.Unlock()
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatalf("cancelled running job never reached a terminal state")
	}
	if code, raw := getBody(t, ts.URL+"/v1/jobs/"+run.ID); code != http.StatusOK ||
		!strings.Contains(string(raw), `"state": "cancelled"`) {
		t.Fatalf("cancelled job doc: status %d body %s", code, raw)
	}

	// Cancelling a terminal job conflicts; the skipped queued job never
	// reached the runner.
	if code, _ := del(queued.ID); code != http.StatusConflict {
		t.Fatalf("cancel terminal: status = %d, want 409", code)
	}
	close(release)
	if got := runner.count(); got != 0 {
		t.Fatalf("runner ran %d times, want 0 (both jobs were cancelled)", got)
	}
}

// readSSEEvent reads one `event:`/`data:` pair from the stream.
func readSSEEvent(t *testing.T, r *bufio.Reader) (string, string) {
	t.Helper()
	var event, data string
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v (got event=%q data=%q)", err, event, data)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
}

func TestEventsStreamProgressAndTerminal(t *testing.T) {
	stage := make(chan struct{})
	runner := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		pool.OnProgress(1, 3, 0)
		select {
		case <-stage:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		pool.OnProgress(3, 3, 1)
		return stubOutput(spec), nil
	}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner})

	_, doc, _ := postSpec(t, ts, sweepSpec(72), false)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	event, data := readSSEEvent(t, br)
	if event != "progress" {
		t.Fatalf("first event = %q, want progress", event)
	}
	var p ProgressEvent
	if err := json.Unmarshal([]byte(data), &p); err != nil || p != (ProgressEvent{Done: 1, Total: 3}) {
		t.Fatalf("first progress = %+v (%v), want {1 3 0}", p, err)
	}

	close(stage)
	sawFinal := false
	for !sawFinal {
		event, data = readSSEEvent(t, br)
		switch event {
		case "progress":
			// the coalesced 3/3 update; fine either way
		case StateDone:
			var final JobDoc
			if err := json.Unmarshal([]byte(data), &final); err != nil {
				t.Fatalf("terminal event data: %v", err)
			}
			if final.State != StateDone || len(final.Result) == 0 {
				t.Fatalf("terminal doc = state %q, result %d bytes", final.State, len(final.Result))
			}
			if final.Progress == nil || final.Progress.Failed != 1 {
				t.Fatalf("terminal doc progress = %+v, want failed=1", final.Progress)
			}
			sawFinal = true
		default:
			t.Fatalf("unexpected event %q", event)
		}
	}
}

func TestDrainClean(t *testing.T) {
	runner := &countingRunner{}
	s := New(Config{Workers: 1, Runner: runner.run})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, _ := postSpec(t, ts, sweepSpec(80), true)
	if status != http.StatusOK {
		t.Fatalf("submit: status = %d, want 200", status)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	// Liveness stays 200 through the drain; readiness flips to 503.
	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK ||
		!strings.Contains(string(body), `"draining": true`) {
		t.Fatalf("healthz while drained: status = %d body %s, want 200 + draining", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while drained: status = %d, want 503", code)
	}
	if status, _, _ := postSpec(t, ts, sweepSpec(88), false); status != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status = %d, want 503", status)
	}
}

func TestDrainForcedCancelsStragglers(t *testing.T) {
	started := make(chan struct{}, 1)
	runner := func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		started <- struct{}{}
		<-ctx.Done() // refuses to finish until cancelled
		return nil, ctx.Err()
	}
	s := New(Config{Workers: 1, QueueDepth: 2, Runner: runner})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, run, _ := postSpec(t, ts, sweepSpec(96), false)
	<-started
	_, queued, _ := postSpec(t, ts, sweepSpec(104), false)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatalf("forced drain returned nil, want grace-period error")
	}
	if !strings.Contains(err.Error(), "cancelled 2 in-flight jobs") {
		t.Fatalf("forced drain error = %v", err)
	}
	for _, id := range []string{run.ID, queued.ID} {
		code, raw := getBody(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK || !strings.Contains(string(raw), `"state": "cancelled"`) {
			t.Fatalf("job %s after forced drain: status %d body %s", id, code, raw)
		}
	}
}

func TestCacheEvictionBound(t *testing.T) {
	runner := &countingRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 1, Runner: runner.run})

	postSpec(t, ts, sweepSpec(112), true) // cached
	postSpec(t, ts, sweepSpec(120), true) // evicts 112
	s.mu.Lock()
	n := s.cache.len()
	s.mu.Unlock()
	if n != 1 {
		t.Fatalf("cache holds %d entries, want 1", n)
	}

	status, doc, _ := postSpec(t, ts, sweepSpec(112), true)
	if status != http.StatusOK || doc.Cached {
		t.Fatalf("evicted spec: status = %d cached = %v, want 200/false (re-run)", status, doc.Cached)
	}
	if got := runner.count(); got != 3 {
		t.Fatalf("engine ran %d times, want 3 (eviction forces a re-run)", got)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner.run})

	postSpec(t, ts, sweepSpec(128), true)
	postSpec(t, ts, sweepSpec(128), false) // cache hit

	code, raw := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status = %d", code)
	}
	samples, types, err := sim.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("metrics do not parse as Prometheus text format: %v\n%s", err, raw)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Le == "" {
			byName[s.Name] = s.Value
		}
	}
	for name, want := range map[string]float64{
		"overlaysim_server_engine_runs":    1,
		"overlaysim_server_cache_hits":     1,
		"overlaysim_server_jobs_completed": 1,
		"overlaysim_sim_stub_runs":         1, // merged from the job's own registry
		"overlaysim_server_queue_depth":    0,
	} {
		if got, ok := byName[name]; !ok || got != want {
			t.Errorf("metric %s = %v (present %v), want %v", name, got, ok, want)
		}
	}
	if types["overlaysim_server_queue_depth"] != "gauge" {
		t.Errorf("queue depth type = %q, want gauge", types["overlaysim_server_queue_depth"])
	}
	if types["overlaysim_server_job_wall_ms"] != "histogram" {
		t.Errorf("job wall histogram type = %q, want histogram", types["overlaysim_server_job_wall_ms"])
	}
	if _, ok := byName["overlaysim_server_job_wall_ms_count"]; !ok {
		t.Errorf("histogram _count series missing from /metrics")
	}
}

// mapStore is an in-memory ResultStore for tests; failGet injects a
// read error (a "corrupt" entry) for one key.
type mapStore struct {
	mu      sync.Mutex
	entries map[string][]byte
	failGet string
	gets    int
	puts    int
}

func newMapStore() *mapStore { return &mapStore{entries: make(map[string][]byte)} }

func (m *mapStore) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gets++
	if key == m.failGet {
		return nil, false, fmt.Errorf("stub corruption for %s", key)
	}
	b, ok := m.entries[key]
	return b, ok, nil
}

func (m *mapStore) Put(key string, result []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.puts++
	m.entries[key] = append([]byte(nil), result...)
	return nil
}

// TestPersistentStoreSurvivesRestart proves the store tier: a second
// server sharing the first one's store answers the same spec from the
// store — X-Overlaysim-Cache: hit-store, cache_source "store", byte-
// identical result — without running its engine.
func TestPersistentStoreSurvivesRestart(t *testing.T) {
	store := newMapStore()
	runner1 := &countingRunner{}
	_, ts1 := newTestServer(t, Config{Workers: 1, Runner: runner1.run, Store: store})

	status, doc, hdr := postSpec(t, ts1, sweepSpec(64), true)
	if status != http.StatusOK || doc.State != StateDone {
		t.Fatalf("first submit: status %d state %q", status, doc.State)
	}
	if got := hdr.Get("X-Overlaysim-Cache"); got != "miss" {
		t.Fatalf("first submit X-Overlaysim-Cache = %q, want miss", got)
	}
	if store.puts != 1 {
		t.Fatalf("store puts = %d, want 1 (write-through on completion)", store.puts)
	}

	// A "restarted" process: fresh server, empty LRU, same store.
	runner2 := &countingRunner{}
	_, ts2 := newTestServer(t, Config{Workers: 1, Runner: runner2.run, Store: store})
	status, doc2, hdr2 := postSpec(t, ts2, sweepSpec(64), false)
	if status != http.StatusOK || !doc2.Cached || doc2.CacheSource != CacheStore {
		t.Fatalf("store hit: status %d cached %v source %q, want 200/true/store",
			status, doc2.Cached, doc2.CacheSource)
	}
	if got := hdr2.Get("X-Overlaysim-Cache"); got != "hit-store" {
		t.Fatalf("store hit X-Overlaysim-Cache = %q, want hit-store", got)
	}
	if string(doc2.Result) != string(doc.Result) {
		t.Fatalf("store-served result differs from the original")
	}
	if runner2.count() != 0 {
		t.Fatalf("second server ran the engine %d times, want 0", runner2.count())
	}

	// The store hit was promoted into the LRU: a third submission hits
	// memory, not the store.
	gets := store.gets
	status, _, hdr3 := postSpec(t, ts2, sweepSpec(64), false)
	if status != http.StatusOK || hdr3.Get("X-Overlaysim-Cache") != "hit" {
		t.Fatalf("post-promotion submit: status %d cache %q, want 200/hit",
			status, hdr3.Get("X-Overlaysim-Cache"))
	}
	if store.gets != gets {
		t.Fatalf("memory hit consulted the store (%d extra reads)", store.gets-gets)
	}
}

// TestStoreReadErrorFallsBackToEngine proves a corrupt store entry is
// a miss, not an outage: the job re-runs and the write-through repairs
// the entry.
func TestStoreReadErrorFallsBackToEngine(t *testing.T) {
	store := newMapStore()
	runner := &countingRunner{}
	s, ts := newTestServer(t, Config{Workers: 1, Runner: runner.run, Store: store})

	var key string
	{
		spec, err := exp.ParseJobSpec(strings.NewReader(sweepSpec(72)))
		if err != nil {
			t.Fatal(err)
		}
		key = spec.Key()
	}
	store.entries[key] = []byte("garbage")
	store.failGet = key

	status, doc, hdr := postSpec(t, ts, sweepSpec(72), true)
	if status != http.StatusOK || doc.State != StateDone || doc.Cached {
		t.Fatalf("submit over corrupt entry: status %d state %q cached %v, want 200/done/false",
			status, doc.State, doc.Cached)
	}
	if got := hdr.Get("X-Overlaysim-Cache"); got != "miss" {
		t.Fatalf("X-Overlaysim-Cache = %q, want miss (corrupt entry is a miss)", got)
	}
	if runner.count() != 1 {
		t.Fatalf("engine ran %d times, want 1", runner.count())
	}
	// The raw result endpoint serves the exact stored bytes (the doc's
	// embedded Result is re-compacted by the JSON encoder, so compare
	// against the byte-preserving endpoint).
	if code, raw := getBody(t, ts.URL+"/v1/jobs/"+doc.ID+"/result"); code != http.StatusOK ||
		string(store.entries[key]) != string(raw) {
		t.Fatalf("write-through did not repair the corrupt entry (GET result = %d)", code)
	}
	s.statsMu.Lock()
	errs := s.stats.Get("server.store_errors")
	s.statsMu.Unlock()
	if errs != 1 {
		t.Fatalf("server.store_errors = %d, want 1", errs)
	}
}

// TestStoreAndCacheAgreeOnDigest is the digest-agreement regression:
// a spec canonicalized with execution-only fields (parallel, cold,
// shared) set must produce the same digest for the LRU cache, the
// persistent store, and exp.JobSpec.Key — so every tier answers a
// resubmission spelled with different execution hints.
func TestStoreAndCacheAgreeOnDigest(t *testing.T) {
	store := newMapStore()
	runner := &countingRunner{}
	_, ts := newTestServer(t, Config{Workers: 1, Runner: runner.run, Store: store})

	base := `{"experiment":"omsstress","tenants":2,"ops":100,"segments":8}`
	variant := `{"experiment":"omsstress","tenants":2,"ops":100,"segments":8,"parallel":4,"shared":true}`

	status, doc, _ := postSpec(t, ts, base, true)
	if status != http.StatusOK || doc.State != StateDone {
		t.Fatalf("base submit: status %d state %q", status, doc.State)
	}
	// The stored entry is keyed by the canonical digest exp.JobSpec.Key.
	baseSpec, err := exp.ParseJobSpec(strings.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}
	varSpec, err := exp.ParseJobSpec(strings.NewReader(variant))
	if err != nil {
		t.Fatal(err)
	}
	if baseSpec.Key() != varSpec.Key() {
		t.Fatalf("execution hints changed the digest: %s vs %s", baseSpec.Key(), varSpec.Key())
	}
	if _, ok := store.entries[doc.Key]; !ok {
		t.Fatalf("store holds keys %v, not the job's digest %s", len(store.entries), doc.Key)
	}
	if doc.Key != baseSpec.Key() {
		t.Fatalf("job doc key %s != spec digest %s", doc.Key, baseSpec.Key())
	}

	// The exec-hint variant hits the LRU...
	status, v1, hdr := postSpec(t, ts, variant, false)
	if status != http.StatusOK || !v1.Cached || hdr.Get("X-Overlaysim-Cache") != "hit" {
		t.Fatalf("variant vs LRU: status %d cached %v cache %q, want 200/true/hit",
			status, v1.Cached, hdr.Get("X-Overlaysim-Cache"))
	}
	// ...and, on a fresh server sharing only the store, the store.
	runner2 := &countingRunner{}
	_, ts2 := newTestServer(t, Config{Workers: 1, Runner: runner2.run, Store: store})
	status, v2, hdr2 := postSpec(t, ts2, variant, false)
	if status != http.StatusOK || !v2.Cached || hdr2.Get("X-Overlaysim-Cache") != "hit-store" {
		t.Fatalf("variant vs store: status %d cached %v cache %q, want 200/true/hit-store",
			status, v2.Cached, hdr2.Get("X-Overlaysim-Cache"))
	}
	if runner2.count() != 0 {
		t.Fatalf("fresh server re-ran the engine for a stored digest")
	}
}

// TestSnapshotReuseAcrossJobs runs two real sweep jobs that share a
// configuration family (same rows, different points) and checks that
// the second job's family warm-up came out of the snapshot cache, with
// the reuse telemetry visible on /metrics.
func TestSnapshotReuseAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	s, ts := newTestServer(t, Config{Workers: 1})

	if code, _, _ := postSpec(t, ts, `{"experiment":"sweep","points":2,"rows":32}`, true); code != http.StatusOK {
		t.Fatalf("job 1: status = %d, want 200", code)
	}
	if code, _, _ := postSpec(t, ts, `{"experiment":"sweep","points":3,"rows":32}`, true); code != http.StatusOK {
		t.Fatalf("job 2: status = %d, want 200", code)
	}
	snapshots := s.exec.(*local).snapshots
	if hits, misses := snapshots.Hits(), snapshots.Misses(); hits != 1 || misses != 1 {
		t.Errorf("snapshot cache hits/misses = %d/%d, want 1/1", hits, misses)
	}

	code, raw := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: status = %d", code)
	}
	samples, _, err := sim.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("metrics do not parse: %v\n%s", err, raw)
	}
	byName := map[string]float64{}
	for _, sm := range samples {
		byName[sm.Name] = sm.Value
	}
	if byName["overlaysim_server_snapshot_cache_hits"] != 1 {
		t.Errorf("snapshot cache hits gauge = %v, want 1", byName["overlaysim_server_snapshot_cache_hits"])
	}
	// Each job forks once per point plus one dense-baseline fork of the
	// shared family.
	if got := byName["overlaysim_"+sim.PromName(exp.SnapForksCounter)]; got < 2 {
		t.Errorf("%s = %v, want >= 2", exp.SnapForksCounter, got)
	}
	if got := byName["overlaysim_"+sim.PromName(exp.SnapWarmupsCounter)]; got < 1 {
		t.Errorf("%s = %v, want >= 1", exp.SnapWarmupsCounter, got)
	}
}
