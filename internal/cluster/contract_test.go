package cluster

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/server"
	"repro/internal/sim"
)

// memStore is an in-memory server.ResultStore whose writes can be made
// to fail.
type memStore struct {
	mu      sync.Mutex
	entries map[string][]byte
	failPut bool
}

func (m *memStore) Get(key string) ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.entries[key]
	return b, ok, nil
}

func (m *memStore) Put(key string, result []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failPut {
		return errors.New("stub write failure")
	}
	m.entries[key] = append([]byte(nil), result...)
	return nil
}

func (m *memStore) setFailPut(fail bool) {
	m.mu.Lock()
	m.failPut = fail
	m.mu.Unlock()
}

// The contract runner holds a spec with blockedRows until its job is
// cancelled, and one with heldRows until the tier's release channel is
// closed; it answers any other at once.
const (
	blockedRows = 512
	heldRows    = 520
)

func contractRunner(release <-chan struct{}) server.Runner {
	return func(ctx context.Context, spec exp.JobSpec, pool exp.Pool) (*exp.JobOutput, error) {
		switch spec.Rows {
		case blockedRows:
			<-ctx.Done()
			return nil, ctx.Err()
		case heldRows:
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return stubOutput(spec), nil
	}
}

// contractTier is one frontend under test: start brings it up over
// run, with two job slots and store as its persistent tier, and returns
// its base URL and its Drain; the other fields are what the tiers
// answer differently.
type contractTier struct {
	name   string
	stats  string   // registry counter prefix as /metrics renders it
	hit    string   // X-Overlaysim-Cache of a resubmitted spec
	jobs   string   // job-ID prefix
	routes []string // per-job GET routes, after /v1/jobs/{id}
	start  func(t *testing.T, store server.ResultStore, run server.Runner) (string, func(context.Context) error)
}

var contractTiers = []contractTier{
	{
		name: "worker", stats: "overlaysim_server_", hit: "hit", jobs: "job-",
		routes: []string{"", "/result", "/events", "/trace"},
		start: func(t *testing.T, store server.ResultStore, run server.Runner) (string, func(context.Context) error) {
			s, ts, _ := newTestWorker(t, server.Config{Workers: 2, Runner: run, Store: store})
			return ts.URL, s.Drain
		},
	},
	{
		name: "coordinator", stats: "overlaysim_coord_", hit: "hit-store", jobs: "cjob-",
		routes: []string{"", "/result", "/events"},
		start: func(t *testing.T, store server.ResultStore, run server.Runner) (string, func(context.Context) error) {
			_, w1, _ := newTestWorker(t, server.Config{Workers: 2, Runner: run})
			co, cts := newTestCoordinator(t, Config{Workers: []string{w1.URL}, Store: store})
			return cts.URL, co.Drain
		},
	},
}

// TestFrontendContract runs one client-side sequence against a worker
// and against a coordinator over one worker: docs/API.md promises the
// two behave identically but for the tier a repeat is answered from.
func TestFrontendContract(t *testing.T) {
	for _, tier := range contractTiers {
		t.Run(tier.name, func(t *testing.T) {
			store := &memStore{entries: make(map[string][]byte)}
			release := make(chan struct{})
			base, drain := tier.start(t, store, contractRunner(release))

			// A job left running from the start, through every step.
			status, running, _ := postSpec(t, base, sweepSpec(heldRows), false)
			if status != http.StatusAccepted {
				t.Fatalf("running submit: status %d, want 202", status)
			}
			waitState(t, base, running.ID, server.StateRunning)

			// Submit with wait: the job runs and is done.
			status, first, hdr := postSpec(t, base, sweepSpec(64), true)
			if status != http.StatusOK || first.State != server.StateDone || hdr.Get("X-Overlaysim-Cache") != "miss" {
				t.Fatalf("submit: status %d state %q cache %q, want 200/done/miss",
					status, first.State, hdr.Get("X-Overlaysim-Cache"))
			}
			if !strings.HasPrefix(first.ID, tier.jobs) {
				t.Fatalf("job ID %q lacks prefix %q", first.ID, tier.jobs)
			}
			// A resubmission is answered from a result tier.
			status, dup, hdr := postSpec(t, base, sweepSpec(64), false)
			if status != http.StatusOK || !dup.Cached || hdr.Get("X-Overlaysim-Cache") != tier.hit {
				t.Fatalf("resubmit: status %d cached %v cache %q, want 200/true/%s",
					status, dup.Cached, hdr.Get("X-Overlaysim-Cache"), tier.hit)
			}

			// An unknown ID is 404 everywhere.
			notFound(t, base, "nosuch", tier.routes)

			// A running job has no result yet; cancelling it ends the
			// stream with a cancelled event, and cancelling again conflicts.
			status, held, _ := postSpec(t, base, sweepSpec(blockedRows), false)
			if status != http.StatusAccepted {
				t.Fatalf("held submit: status %d, want 202", status)
			}
			waitState(t, base, held.ID, server.StateRunning)
			if code, _ := getBody(t, base+"/v1/jobs/"+held.ID+"/result"); code != http.StatusConflict {
				t.Errorf("result of running job: status %d, want 409", code)
			}
			if code := deleteJob(t, base, held.ID); code != http.StatusAccepted {
				t.Fatalf("cancel running job: status %d, want 202", code)
			}
			if ev := terminalEvent(t, base, held.ID); ev != server.StateCancelled {
				t.Fatalf("terminal event %q, want cancelled", ev)
			}
			if code := deleteJob(t, base, held.ID); code != http.StatusConflict {
				t.Errorf("second cancel: status %d, want 409", code)
			}

			// A store that cannot write loses nothing but durability: the
			// job completes, its result is served, the failure is counted.
			store.setFailPut(true)
			status, doc, _ := postSpec(t, base, sweepSpec(72), true)
			if status != http.StatusOK || doc.State != server.StateDone {
				t.Fatalf("submit over failing store: status %d state %q", status, doc.State)
			}
			if code, raw := getBody(t, base+"/v1/jobs/"+doc.ID+"/result"); code != http.StatusOK || len(raw) == 0 {
				t.Fatalf("result over failing store: status %d, %d bytes", code, len(raw))
			}
			if got := counter(t, base, tier.stats+"store_errors"); got != 1 {
				t.Errorf("%sstore_errors = %v, want 1", tier.stats, got)
			}

			// Retention: once RetainedJobs + 1 more jobs have finished, the
			// oldest finished record is gone as if it never existed, the
			// job still running is kept and completes normally, and IDs
			// are not reused.
			var last server.JobDoc
			for i := 0; i <= server.RetainedJobs; i++ {
				if status, last, _ = postSpec(t, base, sweepSpec(64), false); status != http.StatusOK {
					t.Fatalf("hit %d: status %d, want 200", i, status)
				}
			}
			notFound(t, base, first.ID, tier.routes)
			if listing := listed(t, base); len(listing) != server.RetainedJobs+1 || !slices.ContainsFunc(listing,
				func(d server.JobDoc) bool { return d.ID == running.ID }) {
				t.Fatalf("listing holds %d jobs, want %d with running job %s",
					len(listing), server.RetainedJobs+1, running.ID)
			}
			close(release)
			if ev := terminalEvent(t, base, running.ID); ev != server.StateDone {
				t.Fatalf("running job's terminal event %q, want done", ev)
			}
			if code, raw := getBody(t, base+"/v1/jobs/"+running.ID+"/result"); code != http.StatusOK || len(raw) == 0 {
				t.Fatalf("result of the running job: status %d, %d bytes", code, len(raw))
			}
			if _, next, _ := postSpec(t, base, sweepSpec(64), false); next.ID <= last.ID {
				t.Errorf("next job ID %s, want one after %s", next.ID, last.ID)
			}

			// Drain: intake and readiness close, liveness stays.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if status, _, _ := postSpec(t, base, sweepSpec(80), false); status != http.StatusServiceUnavailable {
				t.Errorf("submit while draining: status %d, want 503", status)
			}
			if code, _ := getBody(t, base+"/readyz"); code != http.StatusServiceUnavailable {
				t.Errorf("readyz while draining: status %d, want 503", code)
			}
			if code, _ := getBody(t, base+"/healthz"); code != http.StatusOK {
				t.Errorf("healthz while draining: status %d, want 200", code)
			}
		})
	}
}

// notFound checks that id answers 404 on every per-job route.
func notFound(t *testing.T, base, id string, routes []string) {
	t.Helper()
	for _, path := range routes {
		if code, _ := getBody(t, base+"/v1/jobs/"+id+path); code != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s%s: status %d, want 404", id, path, code)
		}
	}
	if code := deleteJob(t, base, id); code != http.StatusNotFound {
		t.Errorf("DELETE /v1/jobs/%s: status %d, want 404", id, code)
	}
}

func deleteJob(t *testing.T, base, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE %s: %v", id, err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitState polls a job until it reaches state.
func waitState(t *testing.T, base, id, state string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, raw := getBody(t, base+"/v1/jobs/"+id)
		if strings.Contains(string(raw), `"state": "`+state+`"`) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never reached %s: %s", id, state, raw)
		}
	}
}

// terminalEvent follows a job's event stream to its terminal event
// and returns the event's name.
func terminalEvent(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := newSSEReader(resp.Body)
	for {
		ev, err := events.next()
		if err != nil {
			t.Fatalf("stream of %s broke before its terminal event: %v", id, err)
		}
		if ev.name != "progress" {
			return ev.name
		}
	}
}

// counter reads one unlabelled sample from a tier's /metrics.
func counter(t *testing.T, base, name string) float64 {
	t.Helper()
	_, raw := getBody(t, base+"/metrics")
	samples, _, err := sim.ParsePrometheus(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	for _, s := range samples {
		if s.Name == name && s.Label == "" {
			return s.Value
		}
	}
	return 0
}
