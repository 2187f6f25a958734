package cluster

import (
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
	"repro/internal/server"
	"repro/internal/sim"
)

// stubOutput fabricates a small deterministic result for a spec.
func stubOutput(spec exp.JobSpec) *exp.JobOutput {
	ex := sim.NewExport("stub-" + spec.Experiment)
	st := &sim.Stats{}
	st.Add("sim.stub_runs", 1)
	return &exp.JobOutput{Export: ex, Stats: st}
}

// countingRunner counts engine invocations across a worker fleet.
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

// gatedRunner blocks every run until released (or the job is
// cancelled), so tests can hold jobs in flight deterministically.
type gatedRunner struct {
	countingRunner
	release chan struct{}
}

func newGatedRunner() *gatedRunner { return &gatedRunner{release: make(chan struct{})} }

func (g *gatedRunner) run(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
	g.mu.Lock()
	g.runs++
	g.mu.Unlock()
	select {
	case <-g.release:
		return stubOutput(spec), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// killableHandler lets a test simulate a worker crash without closing
// the httptest listener (Close would block on live SSE streams):
// once killed, every request — including in-flight streams, severed
// via panic — is aborted at the connection level.
type killableHandler struct {
	h    http.Handler
	mu   sync.Mutex
	dead bool
}

func (k *killableHandler) kill() {
	k.mu.Lock()
	k.dead = true
	k.mu.Unlock()
}

func (k *killableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k.mu.Lock()
	dead := k.dead
	k.mu.Unlock()
	if dead {
		panic(http.ErrAbortHandler)
	}
	k.h.ServeHTTP(w, r)
}

// newTestWorker starts one worker process-equivalent: a server.Server
// behind a killable handler.
func newTestWorker(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server, *killableHandler) {
	t.Helper()
	s := server.New(cfg)
	kh := &killableHandler{h: s.Handler()}
	ts := httptest.NewServer(kh)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		s.Drain(ctx) //nolint:errcheck // best-effort cleanup
		kh.kill()    // sever streams so Close doesn't block on them
		ts.CloseClientConnections()
		ts.Close()
	})
	return s, ts, kh
}

func newTestCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 50 * time.Millisecond
	}
	co := New(cfg)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		co.Drain(ctx) //nolint:errcheck // best-effort cleanup
		ts.CloseClientConnections()
		ts.Close()
	})
	return co, ts
}

func sweepSpec(rows int) string {
	return fmt.Sprintf(`{"experiment":"sweep","points":2,"rows":%d}`, rows)
}

func postSpec(t *testing.T, base, body string, wait bool) (int, server.JobDoc, http.Header) {
	t.Helper()
	url := base + "/v1/jobs"
	if wait {
		url += "?wait=true"
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var doc server.JobDoc
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

// TestCoordinatorRoutesAndMatchesWorkerBytes is the byte-identity
// chain inside the cluster: a job routed through the coordinator
// serves exactly the bytes the worker serves directly.
func TestCoordinatorRoutesAndMatchesWorkerBytes(t *testing.T) {
	runner := &countingRunner{}
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})
	_, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})

	status, doc, hdr := postSpec(t, cts.URL, sweepSpec(64), true)
	if status != http.StatusOK || doc.State != server.StateDone {
		t.Fatalf("submit via coordinator: status %d state %q error %q", status, doc.State, doc.Error)
	}
	if hdr.Get("X-Overlaysim-Cache") != "miss" {
		t.Fatalf("X-Overlaysim-Cache = %q, want miss", hdr.Get("X-Overlaysim-Cache"))
	}
	if doc.Worker != w1.URL {
		t.Fatalf("doc.worker = %q, want %q", doc.Worker, w1.URL)
	}
	if runner.count() != 1 {
		t.Fatalf("engine ran %d times, want 1", runner.count())
	}

	code, viaCoord := getBody(t, cts.URL+"/v1/jobs/"+doc.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("coordinator result: status %d", code)
	}
	// The worker's own record of the same job (the worker has exactly
	// one) must serve identical bytes.
	var listing struct {
		Jobs []server.JobDoc `json:"jobs"`
	}
	_, raw := getBody(t, w1.URL+"/v1/jobs")
	if err := json.Unmarshal(raw, &listing); err != nil || len(listing.Jobs) != 1 {
		t.Fatalf("worker listing: %v (%d jobs)", err, len(listing.Jobs))
	}
	_, direct := getBody(t, w1.URL+"/v1/jobs/"+listing.Jobs[0].ID+"/result")
	if string(viaCoord) != string(direct) {
		t.Fatalf("coordinator result differs from worker result:\n%d vs %d bytes",
			len(viaCoord), len(direct))
	}
}

// TestCoordinatorSingleFlight proves concurrent identical submissions
// collapse onto one routed job: the engine runs exactly once and both
// submitters get the same result.
func TestCoordinatorSingleFlight(t *testing.T) {
	runner := newGatedRunner()
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})
	_, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})

	status, first, _ := postSpec(t, cts.URL, sweepSpec(80), false)
	if status != http.StatusAccepted {
		t.Fatalf("leader submit: status %d", status)
	}

	type res struct {
		status int
		doc    server.JobDoc
		hdr    http.Header
	}
	joined := make(chan res, 1)
	go func() {
		s, d, h := postSpec(t, cts.URL, sweepSpec(80), true)
		joined <- res{s, d, h}
	}()

	// The duplicate is registered as a join before the gate opens.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, raw := getBody(t, cts.URL+"/metrics")
		if strings.Contains(string(raw), "overlaysim_coord_singleflight_hits 1") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("duplicate submission never joined the in-flight job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(runner.release)

	r := <-joined
	if r.status != http.StatusOK || r.doc.State != server.StateDone {
		t.Fatalf("joined submit: status %d state %q error %q", r.status, r.doc.State, r.doc.Error)
	}
	if r.doc.ID != first.ID {
		t.Fatalf("joined job %s != leader job %s", r.doc.ID, first.ID)
	}
	if got := r.hdr.Get("X-Overlaysim-Singleflight"); got != first.ID {
		t.Fatalf("X-Overlaysim-Singleflight = %q, want %q", got, first.ID)
	}
	if runner.count() != 1 {
		t.Fatalf("engine ran %d times, want 1 (single-flight)", runner.count())
	}
}

// TestCoordinatorRestartServesFromStore proves completed results
// survive the coordinator: a fresh coordinator sharing only the
// persistent store — zero workers — answers the spec from disk.
func TestCoordinatorRestartServesFromStore(t *testing.T) {
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runner := &countingRunner{}
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})

	co1, cts1 := newTestCoordinator(t, Config{Workers: []string{w1.URL}, Store: store})
	status, doc, _ := postSpec(t, cts1.URL, sweepSpec(96), true)
	if status != http.StatusOK || doc.State != server.StateDone {
		t.Fatalf("first run: status %d state %q", status, doc.State)
	}
	_, original := getBody(t, cts1.URL+"/v1/jobs/"+doc.ID+"/result")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := co1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// "Restart": a brand-new coordinator, same store directory, and —
	// to prove no engine can possibly run — no workers at all.
	_, cts2 := newTestCoordinator(t, Config{Store: store})
	status, doc2, hdr := postSpec(t, cts2.URL, sweepSpec(96), false)
	if status != http.StatusOK || !doc2.Cached || doc2.CacheSource != server.CacheStore {
		t.Fatalf("store hit: status %d cached %v source %q", status, doc2.Cached, doc2.CacheSource)
	}
	if hdr.Get("X-Overlaysim-Cache") != "hit-store" {
		t.Fatalf("X-Overlaysim-Cache = %q, want hit-store", hdr.Get("X-Overlaysim-Cache"))
	}
	_, replayed := getBody(t, cts2.URL+"/v1/jobs/"+doc2.ID+"/result")
	if string(replayed) != string(original) {
		t.Fatal("restarted coordinator served different bytes than the original run")
	}
	if runner.count() != 1 {
		t.Fatalf("engine ran %d times total, want 1", runner.count())
	}

	// An unknown spec, with no workers, is 503 — not a hang.
	status, _, _ = postSpec(t, cts2.URL, sweepSpec(97), false)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit with no workers: status %d, want 503", status)
	}
}

// TestWorkerLossReroutesPendingJobs kills a worker with jobs in its
// queue; every routed job re-forwards to the surviving worker and
// still succeeds.
func TestWorkerLossReroutesPendingJobs(t *testing.T) {
	gated := newGatedRunner() // worker 1 wedges every job
	runner2 := &countingRunner{}
	_, w1, kh1 := newTestWorker(t, server.Config{Workers: 1, Runner: gated.run})
	_, w2, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner2.run})

	co, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})

	// Three jobs: one runs (wedged), two wait in worker 1's queue.
	var ids []string
	for i := 0; i < 3; i++ {
		status, doc, _ := postSpec(t, cts.URL, sweepSpec(100+i), false)
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids = append(ids, doc.ID)
	}

	co.RegisterWorker(w2.URL)
	kh1.kill()
	w1.CloseClientConnections() // sever the three SSE watches

	deadline := time.Now().Add(10 * time.Second)
	for _, id := range ids {
		for {
			_, raw := getBody(t, cts.URL+"/v1/jobs/"+id)
			var doc server.JobDoc
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("decoding job %s: %v", id, err)
			}
			if doc.State == server.StateDone {
				if doc.Worker != w2.URL {
					t.Fatalf("job %s finished on %q, want rerouted to %q", id, doc.Worker, w2.URL)
				}
				break
			}
			if doc.State == server.StateFailed || doc.State == server.StateCancelled {
				t.Fatalf("job %s reached %s (%s) instead of rerouting", id, doc.State, doc.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s after worker loss", id, doc.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	if runner2.count() != 3 {
		t.Fatalf("surviving worker ran %d jobs, want 3", runner2.count())
	}
	// The results are intact and byte-identical to the survivor's.
	for _, id := range ids {
		code, body := getBody(t, cts.URL+"/v1/jobs/"+id+"/result")
		if code != http.StatusOK || len(body) == 0 {
			t.Fatalf("result for rerouted job %s: status %d, %d bytes", id, code, len(body))
		}
	}
}

// truncatingHandler is a worker whose GET .../result answers 200 with
// only the first half of the result bytes: a body cut off in transit.
type truncatingHandler struct{ h http.Handler }

func (th truncatingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !strings.HasSuffix(r.URL.Path, "/result") {
		th.h.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	th.h.ServeHTTP(rec, r)
	w.Header().Set("Content-Type", "application/json")
	w.Write(rec.Body.Bytes()[:rec.Body.Len()/2]) //nolint:errcheck
}

// TestInvalidResultReroutes proves the coordinator checks the result
// bytes it fetches: a worker serving truncated JSON counts as a failed
// fetch, the job completes on the other worker, and the store holds
// that worker's valid bytes.
func TestInvalidResultReroutes(t *testing.T) {
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	good, bad := &countingRunner{}, &countingRunner{}
	_, wGood, _ := newTestWorker(t, server.Config{Workers: 1, Runner: good.run})
	sBad := server.New(server.Config{Workers: 1, Runner: bad.run})
	wBad := httptest.NewServer(truncatingHandler{sBad.Handler()})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		sBad.Drain(ctx) //nolint:errcheck // best-effort cleanup
		wBad.Close()
	})
	_, cts := newTestCoordinator(t, Config{Workers: []string{wGood.URL, wBad.URL}, Store: store})

	// A spec the truncating worker ranks first for, so the job goes
	// there before it can go anywhere else.
	var body, key string
	for rows := 16; key == ""; rows += 16 {
		spec, err := exp.ParseJobSpec(strings.NewReader(sweepSpec(rows)))
		if err != nil {
			t.Fatal(err)
		}
		if Rank(spec.Key(), []string{wGood.URL, wBad.URL})[0] == wBad.URL {
			body, key = sweepSpec(rows), spec.Key()
		}
	}

	status, doc, _ := postSpec(t, cts.URL, body, true)
	if status != http.StatusOK || doc.State != server.StateDone {
		t.Fatalf("submit: status %d state %q error %q", status, doc.State, doc.Error)
	}
	if doc.Worker != wGood.URL {
		t.Fatalf("job finished on %q, want re-routed to %q", doc.Worker, wGood.URL)
	}
	if bad.count() != 1 || good.count() != 1 {
		t.Fatalf("engine runs: truncating worker %d, other %d; want 1 each", bad.count(), good.count())
	}
	stored, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("store entry: ok %v, err %v", ok, err)
	}
	_, direct := getBody(t, cts.URL+"/v1/jobs/"+doc.ID+"/result")
	if !json.Valid(stored) || string(stored) != string(direct) || len(doc.Result) == 0 {
		t.Fatalf("store holds %d bytes (valid %v), coordinator serves %d",
			len(stored), json.Valid(stored), len(direct))
	}
}

// TestCoordinatorEventsStreamRelays proves a client watching the
// coordinator's SSE feed sees the terminal event of a routed job.
func TestCoordinatorEventsStreamRelays(t *testing.T) {
	runner := newGatedRunner()
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})
	_, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})

	status, doc, _ := postSpec(t, cts.URL, sweepSpec(120), false)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	resp, err := http.Get(cts.URL + "/v1/jobs/" + doc.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	close(runner.release)

	events := newSSEReader(resp.Body)
	for {
		ev, err := events.next()
		if err != nil {
			t.Fatalf("stream broke before terminal event: %v", err)
		}
		if ev.name == server.StateDone {
			var final server.JobDoc
			if err := json.Unmarshal(ev.data, &final); err != nil {
				t.Fatalf("decoding terminal event: %v", err)
			}
			if final.ID != doc.ID || final.Worker != w1.URL {
				t.Fatalf("terminal doc = id %q worker %q", final.ID, final.Worker)
			}
			return
		}
		if ev.name == server.StateFailed || ev.name == server.StateCancelled {
			t.Fatalf("job reached %s", ev.name)
		}
	}
}

// TestFleetMetricsAggregate proves GET /metrics on the coordinator
// contains the sum of the workers' registries.
func TestFleetMetricsAggregate(t *testing.T) {
	r1, r2 := &countingRunner{}, &countingRunner{}
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: r1.run})
	_, w2, _ := newTestWorker(t, server.Config{Workers: 1, Runner: r2.run})
	_, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL, w2.URL}})

	// Run jobs until both workers have executed at least one (the
	// rendezvous split of arbitrary keys over random ports is
	// deterministic but not known a priori).
	for i := 0; r1.count() == 0 || r2.count() == 0; i++ {
		if i > 50 {
			t.Fatalf("rendezvous never hit both workers (r1=%d r2=%d)", r1.count(), r2.count())
		}
		if status, doc, _ := postSpec(t, cts.URL, sweepSpec(200+i), true); status != http.StatusOK {
			t.Fatalf("submit %d: status %d (%s)", i, status, doc.Error)
		}
	}
	total := r1.count() + r2.count()

	_, raw := getBody(t, cts.URL+"/metrics")
	samples, _, err := sim.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("coordinator /metrics is not parseable: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Label == "" {
			byName[s.Name] = s.Value
		}
	}
	if got := byName["overlaysim_server_engine_runs"]; got != float64(total) {
		t.Errorf("fleet engine_runs = %v, want %d (sum of workers)", got, total)
	}
	if got := byName["overlaysim_sim_stub_runs"]; got != float64(total) {
		t.Errorf("fleet sim_stub_runs = %v, want %d", got, total)
	}
	if got := byName["overlaysim_coord_jobs_forwarded"]; got != float64(total) {
		t.Errorf("coord_jobs_forwarded = %v, want %d", got, total)
	}
	if byName["overlaysim_coord_workers"] != 2 || byName["overlaysim_coord_scrape_errors"] != 0 {
		t.Errorf("fleet gauges: workers=%v scrape_errors=%v",
			byName["overlaysim_coord_workers"], byName["overlaysim_coord_scrape_errors"])
	}
}

// TestCoordinatorDrainRejectsSubmissions pins the drain contract.
func TestCoordinatorDrainRejectsSubmissions(t *testing.T) {
	runner := &countingRunner{}
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})
	co, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := co.Drain(ctx); err != nil {
		t.Fatalf("drain of idle coordinator: %v", err)
	}
	status, _, _ := postSpec(t, cts.URL, sweepSpec(64), false)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", status)
	}
	if code, _ := getBody(t, cts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d, want 503", code)
	}
}

// TestRegisterLoopAnnouncesWorker exercises the worker side of
// registration against a live coordinator.
func TestRegisterLoopAnnouncesWorker(t *testing.T) {
	runner := &countingRunner{}
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, Runner: runner.run})
	co, cts := newTestCoordinator(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go RegisterLoop(ctx, cts.URL, w1.URL, 20*time.Millisecond, co.cfg.Logger)

	deadline := time.Now().Add(5 * time.Second)
	for {
		docs := co.workerDocs()
		if len(docs) == 1 && docs[0].URL == w1.URL && docs[0].Healthy && docs[0].Registered {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", docs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The registered fleet serves jobs.
	status, doc, _ := postSpec(t, cts.URL, sweepSpec(64), true)
	if status != http.StatusOK || doc.State != server.StateDone {
		t.Fatalf("submit after registration: status %d state %q", status, doc.State)
	}
}

// postRejected submits a spec the tier is expected to refuse and
// returns the status, the headers and the error body's job_id.
func postRejected(t *testing.T, base, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/jobs: %v", base, err)
	}
	defer resp.Body.Close()
	var eb struct {
		Error string `json:"error"`
		JobID string `json:"job_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Fatalf("status %d: no error body (%v)", resp.StatusCode, err)
	}
	return resp.StatusCode, resp.Header, eb.JobID
}

// listedJobs counts the jobs a tier lists.
func listedJobs(t *testing.T, base string) int {
	t.Helper()
	var listing struct {
		Jobs []server.JobDoc `json:"jobs"`
	}
	_, raw := getBody(t, base+"/v1/jobs")
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatalf("job listing %q: %v", raw, err)
	}
	return len(listing.Jobs)
}

// TestSaturatedFleetRegistersNothing proves a coordinator rejection
// rolls back as a worker's does: with its one worker busy and its
// queue full, the coordinator answers 429 with Retry-After, names no
// job, and lists only the two jobs it accepted.
func TestSaturatedFleetRegistersNothing(t *testing.T) {
	runner := newGatedRunner()
	_, w1, _ := newTestWorker(t, server.Config{Workers: 1, QueueDepth: 1, Runner: runner.run})
	_, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}})
	t.Cleanup(func() { close(runner.release) })

	if status, _, _ := postSpec(t, cts.URL, sweepSpec(8), false); status != http.StatusAccepted {
		t.Fatalf("job 1: status %d, want 202", status)
	}
	// The worker dequeues job 1 before job 2 may fill its queue.
	for deadline := time.Now().Add(5 * time.Second); runner.count() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never started job 1")
		}
	}
	if status, _, _ := postSpec(t, cts.URL, sweepSpec(16), false); status != http.StatusAccepted {
		t.Fatalf("job 2: status %d, want 202", status)
	}

	status, hdr, jobID := postRejected(t, cts.URL, sweepSpec(24))
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") != "2" {
		t.Fatalf("job 3: status %d Retry-After %q, want 429 and 2", status, hdr.Get("Retry-After"))
	}
	if jobID != "" {
		t.Fatalf("rejected submission names job %q; nothing should be registered", jobID)
	}
	if n := listedJobs(t, cts.URL); n != 2 {
		t.Fatalf("coordinator lists %d jobs, want 2 (429 must roll back)", n)
	}
}

// TestNoWorkersRegistersNothing proves the 503 for an empty fleet
// names no job and leaves the job list empty.
func TestNoWorkersRegistersNothing(t *testing.T) {
	_, cts := newTestCoordinator(t, Config{})
	status, _, jobID := postRejected(t, cts.URL, sweepSpec(32))
	if status != http.StatusServiceUnavailable || jobID != "" {
		t.Fatalf("submit with no workers: status %d job %q, want 503 and none", status, jobID)
	}
	if n := listedJobs(t, cts.URL); n != 0 {
		t.Fatalf("coordinator lists %d jobs, want 0", n)
	}
}

// TestJoinerOfRejectedJobSeesFailure proves that requests which joined
// a job while its forward was still running, with ?wait=true and
// without, are answered with the forward's refusal rather than a job:
// 429 with Retry-After, and no job ID in the body, Location or
// single-flight header. The refused job's ID is never handed out, and
// the next job takes a fresh one.
func TestJoinerOfRejectedJobSeesFailure(t *testing.T) {
	posted := make(chan struct{}, 1)
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			return // readiness probes: 200
		}
		posted <- struct{}{}
		<-release
		server.WriteError(w, http.StatusTooManyRequests, fmt.Errorf("job queue is full"), "")
	}))
	defer stub.Close()
	// A stored result lets the coordinator accept one job without the
	// stub worker.
	store, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stored, err := exp.ParseJobSpec(strings.NewReader(sweepSpec(8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(stored.Key(), []byte(`{"stub":true}`)); err != nil {
		t.Fatal(err)
	}
	_, cts := newTestCoordinator(t, Config{Workers: []string{stub.URL}, Store: store})

	type answer struct {
		status int
		hdr    http.Header
		jobID  string // the error body's job_id or the document's id
	}
	// submit runs on its own goroutine, so it reports with t.Error.
	submit := func(query string) answer {
		resp, err := http.Post(cts.URL+"/v1/jobs"+query, "application/json", strings.NewReader(sweepSpec(40)))
		if err != nil {
			t.Error(err)
			return answer{}
		}
		defer resp.Body.Close()
		var body struct {
			JobID string `json:"job_id"`
			ID    string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&body) //nolint:errcheck // checked through the fields
		return answer{resp.StatusCode, resp.Header, body.JobID + body.ID}
	}
	leader := make(chan answer, 1)
	go func() { leader <- submit("") }()
	<-posted
	joiners := make(chan answer, 2)
	for _, query := range []string{"?wait=true", ""} {
		go func() { joiners <- submit(query) }()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if _, raw := getBody(t, cts.URL+"/metrics"); strings.Contains(string(raw), "overlaysim_coord_singleflight_hits 2\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the other submissions never joined the forwarding job")
		}
	}
	close(release)

	for i, a := range []answer{<-leader, <-joiners, <-joiners} {
		if a.status != http.StatusTooManyRequests || a.hdr.Get("Retry-After") != "2" {
			t.Fatalf("submission %d: status %d Retry-After %q, want 429 and 2", i, a.status, a.hdr.Get("Retry-After"))
		}
		if a.jobID != "" || a.hdr.Get("Location") != "" || a.hdr.Get("X-Overlaysim-Singleflight") != "" {
			t.Fatalf("submission %d names job %q (Location %q, single-flight %q); a refused job has no ID",
				i, a.jobID, a.hdr.Get("Location"), a.hdr.Get("X-Overlaysim-Singleflight"))
		}
	}
	if n := listedJobs(t, cts.URL); n != 0 {
		t.Fatalf("coordinator lists %d jobs, want 0", n)
	}
	// The refused job took cjob-000001, and no one may get it again.
	if status, doc, _ := postSpec(t, cts.URL, sweepSpec(8), false); status != http.StatusOK || doc.ID != "cjob-000002" {
		t.Fatalf("next submission: status %d job %q, want 200 and cjob-000002", status, doc.ID)
	}
}
