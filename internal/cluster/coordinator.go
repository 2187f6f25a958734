package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Config sizes a Coordinator. The zero value is usable except for
// Workers/registration: a coordinator with no workers answers 503
// until one registers.
type Config struct {
	// Workers seeds the shard set with static worker base URLs
	// (e.g. http://127.0.0.1:8391). Workers may also self-register at
	// runtime via POST /v1/workers — the two sources merge.
	Workers []string

	// Store is the persistent result tier (nil = none): every
	// completed result is written through to it, and a submission
	// whose digest is already stored answers without touching a
	// worker. Point workers at the same store to dedupe fleet-wide.
	Store server.ResultStore

	// HealthInterval is the /readyz probe period (0 = 2s).
	HealthInterval time.Duration

	// RetryAfter is the backpressure hint returned with 429 when
	// every reachable shard is saturated (0 = 2s).
	RetryAfter time.Duration

	// ForwardAttempts bounds how many shards one job may be routed to
	// before failing — the initial forward plus re-routes after a
	// worker dies mid-job (0 = 3).
	ForwardAttempts int

	// Logger receives structured records for routing decisions, health
	// transitions and HTTP requests (nil = discarded).
	Logger *slog.Logger

	// DisableTracing turns the coordinator's spans off entirely.
	DisableTracing bool
}

// forwardTimeout caps one forwarding POST, result fetch or metrics
// scrape. The SSE watch itself is unbounded — jobs run as long as they
// run.
const forwardTimeout = 30 * time.Second

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.ForwardAttempts <= 0 {
		c.ForwardAttempts = 3
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// WorkerDoc is one shard as the coordinator sees it, and its wire form
// in GET /v1/workers.
type WorkerDoc struct {
	URL        string    `json:"url"`
	Healthy    bool      `json:"healthy"`
	Registered bool      `json:"registered"` // arrived via POST /v1/workers (vs static config)
	LastSeen   time.Time `json:"last_seen,omitempty"`
	Jobs       uint64    `json:"jobs"` // jobs this coordinator routed here
}

// Coordinator routes jobs across a worker fleet. It is the remote
// executor behind a server.Server frontend, which keeps the job API,
// the store tier, single-flight and drain; the Coordinator forwards
// admitted jobs, follows them on their workers and keeps the fleet's
// health. Construct with New (the health loop starts immediately),
// serve its Handler, stop with Drain.
type Coordinator struct {
	srv    *server.Server
	cfg    Config
	client *http.Client // per-call contexts bound the non-streaming requests

	mu      sync.Mutex // guards workers
	workers map[string]*WorkerDoc
}

// New builds the coordinator and starts its health-check loop.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	co := &Coordinator{
		cfg:     cfg,
		client:  &http.Client{},
		workers: make(map[string]*WorkerDoc),
	}
	for _, u := range cfg.Workers {
		// Statically configured workers start healthy and are corrected
		// by the first probe; jobs submitted before it complete their
		// own liveness discovery by failing over.
		co.workers[u] = &WorkerDoc{URL: u, Healthy: true}
	}
	// No memory tier: the store answers repeats, and the worker that
	// owns a spec keeps it in its own LRU.
	co.srv = server.NewFrontend(server.Tier{
		JobPrefix: "cjob-", RootSpan: "coordinator.job", StatPrefix: "coord.",
		Store: cfg.Store, RetryAfter: cfg.RetryAfter,
		Logger: cfg.Logger, DisableTracing: cfg.DisableTracing,
	}, co)
	co.srv.Go(co.healthLoop)
	return co
}

// Handler returns the coordinator's HTTP routes: the single-node
// /v1/jobs surface plus the fleet endpoints (see docs/CLUSTER.md).
func (co *Coordinator) Handler() http.Handler { return co.srv.Handler() }

// Drain stops intake, gives routed jobs until ctx expires to finish
// before cancelling them on their workers, and stops the health loop.
func (co *Coordinator) Drain(ctx context.Context) error { return co.srv.Drain(ctx) }

// RegisterWorker adds (or refreshes) a shard. A re-registration marks
// the worker healthy immediately — it is how a restarted worker
// announces it is back, and how a restarted coordinator re-learns a
// fleet it forgot.
func (co *Coordinator) RegisterWorker(url string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[url]
	if !ok {
		w = &WorkerDoc{URL: url}
		co.workers[url] = w
		co.cfg.Logger.Info("worker registered", "worker", url, "fleet", len(co.workers))
	}
	w.Registered = true
	co.markHealthyLocked(w, "registration")
}

// markHealthyLocked records a passed probe or a registration. Caller
// holds the mutex.
func (co *Coordinator) markHealthyLocked(w *WorkerDoc, via string) {
	if !w.Healthy {
		co.cfg.Logger.Info("worker healthy", "worker", w.URL, "via", via)
	}
	w.Healthy = true
	w.LastSeen = time.Now()
}

// workerDocs snapshots the fleet, sorted by URL.
func (co *Coordinator) workerDocs() []WorkerDoc {
	co.mu.Lock()
	docs := make([]WorkerDoc, 0, len(co.workers))
	for _, w := range co.workers {
		docs = append(docs, *w)
	}
	co.mu.Unlock()
	sort.Slice(docs, func(i, k int) bool { return docs[i].URL < docs[k].URL })
	return docs
}

// healthyWorkersLocked snapshots the URLs currently believed routable.
// Caller holds the mutex.
func (co *Coordinator) healthyWorkersLocked() []string {
	urls := make([]string, 0, len(co.workers))
	for _, w := range co.workers {
		if w.Healthy {
			urls = append(urls, w.URL)
		}
	}
	return urls
}

// markUnhealthy records a failed probe or forward. The worker stays in
// the set — a later probe or re-registration revives it.
func (co *Coordinator) markUnhealthy(url, why string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[url]
	if !ok || !w.Healthy {
		return
	}
	w.Healthy = false
	co.srv.AddStat("coord.worker_down", 1)
	co.cfg.Logger.Warn("worker unhealthy", "worker", url, "why", why)
}

// healthLoop probes every worker's /readyz each interval. A worker
// that answers 200 is routable; anything else — including a draining
// worker's 503 — takes it out of the rendezvous ranking until it
// recovers.
func (co *Coordinator) healthLoop(ctx context.Context) {
	t := time.NewTicker(co.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		co.mu.Lock()
		urls := make([]string, 0, len(co.workers))
		for u := range co.workers {
			urls = append(urls, u)
		}
		co.mu.Unlock()
		for _, u := range urls {
			if !co.probe(ctx, u) {
				co.markUnhealthy(u, "readyz probe failed")
				continue
			}
			co.mu.Lock()
			if w, ok := co.workers[u]; ok {
				co.markHealthyLocked(w, "probe")
			}
			co.mu.Unlock()
		}
	}
}

// probe is one readiness check.
func (co *Coordinator) probe(ctx context.Context, url string) bool {
	ctx, cancel := context.WithTimeout(ctx, co.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Admission outcomes forward() distinguishes for the HTTP layer.
var (
	errAllSaturated   = errors.New("every reachable shard is saturated; retry shortly")
	errNoWorkers      = errors.New("no healthy workers")
	errAttemptsSpent  = errors.New("job re-routed too many times")
	errWorkerRejected = errors.New("worker rejected the spec")
)

// routed is one job's routing state, owned by the goroutine that
// forwards or follows it.
type routed struct {
	j        *server.Job
	worker   string // shard currently (or last) running the job
	remoteID string // the worker's job ID
	attempts int    // forwards consumed, including re-routes
}

// Admit forwards a registered job to its rendezvous shard on the
// submitter's request, so that saturation (429), a spec the workers
// reject (502) and the loss of the fleet (503) answer synchronously;
// an accepted job is then followed by a watcher until it is terminal.
func (co *Coordinator) Admit(ctx context.Context, j *server.Job) (int, error) {
	rt := &routed{j: j}
	if err := co.forward(ctx, rt); err != nil {
		switch {
		case errors.Is(err, errAllSaturated):
			return http.StatusTooManyRequests, err
		case errors.Is(err, errWorkerRejected):
			return http.StatusBadGateway, err
		}
		return http.StatusServiceUnavailable, err
	}
	co.srv.Go(func(context.Context) { co.watch(ctx, rt) })
	return http.StatusAccepted, nil
}

// forward routes one job to the best healthy shard: rendezvous order,
// skipping workers that refuse. A connection error or 5xx marks the
// worker unhealthy and moves on; 429 notes saturation and moves on.
// On acceptance the job is marked running on that worker and the
// worker's job ID is kept for watching.
func (co *Coordinator) forward(ctx context.Context, rt *routed) error {
	spec := rt.j.Spec()
	body, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("encoding spec: %w", err)
	}
	co.mu.Lock()
	candidates := Rank(rt.j.Key(), co.healthyWorkersLocked())
	co.mu.Unlock()
	if len(candidates) == 0 {
		return errNoWorkers
	}
	saturated := false
	for _, w := range candidates {
		if rt.attempts >= co.cfg.ForwardAttempts {
			return errAttemptsSpent
		}
		rt.attempts++
		doc, status, ferr := co.postJob(ctx, w, body, rt.j)
		switch {
		case ferr != nil:
			if ctx.Err() != nil {
				return ctx.Err()
			}
			co.markUnhealthy(w, ferr.Error())
			continue
		case status == http.StatusOK || status == http.StatusAccepted:
			rt.worker, rt.remoteID = w, doc.ID
			co.srv.Start(rt.j, w)
			co.mu.Lock()
			if ws, ok := co.workers[w]; ok {
				ws.Jobs++
			}
			co.mu.Unlock()
			co.srv.AddStat("coord.jobs_forwarded", 1)
			co.cfg.Logger.Info("job forwarded",
				"job_id", rt.j.ID(), "worker", w, "remote_id", doc.ID,
				"attempt", rt.attempts, "cached", doc.Cached)
			return nil
		case status == http.StatusTooManyRequests:
			saturated = true
			co.cfg.Logger.Info("worker saturated", "job_id", rt.j.ID(), "worker", w)
			continue
		case status == http.StatusServiceUnavailable:
			co.markUnhealthy(w, "draining")
			continue
		case status == http.StatusBadRequest:
			// The coordinator validated this spec; a worker 400 means
			// version skew, and another worker may be newer.
			co.cfg.Logger.Warn("worker rejected spec",
				"job_id", rt.j.ID(), "worker", w, "err", doc.Error)
			err = fmt.Errorf("%w: %s", errWorkerRejected, doc.Error)
			continue
		default:
			co.markUnhealthy(w, fmt.Sprintf("unexpected status %d", status))
			continue
		}
	}
	switch {
	case saturated:
		return errAllSaturated
	case err != nil:
		return err
	default:
		return errNoWorkers
	}
}

// postJob submits the spec to one worker. The forward span's
// traceparent rides along, so the worker's job trace joins the
// coordinator's; the worker's error body (if any) is decoded into the
// returned doc's Error.
func (co *Coordinator) postJob(ctx context.Context, worker string, body []byte, j *server.Job) (server.JobDoc, int, error) {
	var doc server.JobDoc
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return doc, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id := j.RequestID(); id != "" {
		req.Header.Set("X-Request-ID", id)
	}
	fwd := j.StartSpan("forward")
	fwd.SetAttr("worker", worker)
	obs.PropagateTraceparent(req.Header, fwd.Context())
	resp, err := co.client.Do(req)
	fwd.End()
	if err != nil {
		return doc, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return doc, 0, err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		json.Unmarshal(raw, &eb) //nolint:errcheck // best-effort detail
		doc.Error = eb.Error
		return doc, resp.StatusCode, nil
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, 0, fmt.Errorf("decoding job doc from %s: %w", worker, err)
	}
	return doc, resp.StatusCode, nil
}

// watch follows one routed job to completion: it consumes the
// worker's SSE stream, republishes progress, and on the terminal
// event fetches the raw result bytes (the stream's embedded copy is
// re-compacted by the worker's JSON encoder — only GET .../result
// preserves the CLI-identical bytes). A broken stream before the
// terminal event means the worker died: it is marked unhealthy and
// the job re-forwards to the next shard in rendezvous order, which is
// safe because the simulation is deterministic.
func (co *Coordinator) watch(ctx context.Context, rt *routed) {
	for {
		state, doc, err := co.follow(ctx, rt)
		if err == nil {
			switch state {
			case server.StateDone:
				result, rerr := co.fetchResult(ctx, rt)
				if rerr == nil {
					co.srv.Finish(rt.j, result, nil)
					return
				}
				// Completed on the worker but unretrievable (it died
				// between the event and the fetch, or served invalid
				// JSON): re-run elsewhere.
				co.cfg.Logger.Warn("result fetch failed",
					"job_id", rt.j.ID(), "worker", rt.worker, "err", rerr.Error())
				co.markUnhealthy(rt.worker, "result fetch failed")
			case server.StateFailed:
				co.srv.Finish(rt.j, nil, errors.New(doc.Error))
				return
			case server.StateCancelled:
				co.srv.Finish(rt.j, nil, context.Canceled)
				return
			}
		}
		if ctx.Err() != nil {
			// Cancelled coordinator-side (DELETE or drain): tell the
			// worker, best-effort, and finish.
			co.cancelRemote(rt)
			co.srv.Finish(rt.j, nil, context.Canceled)
			return
		}
		if err != nil {
			co.markUnhealthy(rt.worker, fmt.Sprintf("event stream broke: %v", err))
		}
		co.srv.AddStat("coord.forward_retries", 1)
		co.cfg.Logger.Warn("re-routing job", "job_id", rt.j.ID(), "lost_worker", rt.worker)
		if ferr := co.forward(ctx, rt); ferr != nil {
			co.srv.Finish(rt.j, nil, fmt.Errorf("re-routing after worker loss: %w", ferr))
			return
		}
	}
}

// follow consumes one worker's SSE stream for the job until a
// terminal event or a stream error. Progress events update the
// frontend's record; the terminal event's state and doc are returned.
func (co *Coordinator) follow(ctx context.Context, rt *routed) (string, server.JobDoc, error) {
	var doc server.JobDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		rt.worker+"/v1/jobs/"+rt.remoteID+"/events", nil)
	if err != nil {
		return "", doc, err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return "", doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return "", doc, fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	events := newSSEReader(resp.Body)
	for {
		ev, err := events.next()
		if err != nil {
			return "", doc, err
		}
		switch ev.name {
		case "progress":
			var p server.ProgressEvent
			if json.Unmarshal(ev.data, &p) == nil {
				co.srv.Progress(rt.j, p)
			}
		case server.StateDone, server.StateFailed, server.StateCancelled:
			if err := json.Unmarshal(ev.data, &doc); err != nil {
				return "", doc, fmt.Errorf("decoding terminal event: %w", err)
			}
			return ev.name, doc, nil
		}
	}
}

// fetchResult retrieves the raw result bytes for a completed remote
// job — exactly what the worker would serve any client. Bytes that are
// not valid JSON count as a failed fetch: they would corrupt the store
// and every job document that splices them in.
func (co *Coordinator) fetchResult(ctx context.Context, rt *routed) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		rt.worker+"/v1/jobs/"+rt.remoteID+"/result", nil)
	if err != nil {
		return nil, err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		return nil, fmt.Errorf("result: status %d", resp.StatusCode)
	}
	result, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	if !json.Valid(result) {
		return nil, fmt.Errorf("result: %d bytes of invalid JSON", len(result))
	}
	return result, nil
}

// cancelRemote forwards a cancellation, best-effort.
func (co *Coordinator) cancelRemote(rt *routed) {
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		rt.worker+"/v1/jobs/"+rt.remoteID, nil)
	if err != nil {
		return
	}
	if resp, err := co.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

// healthDoc reports the coordinator's live state: fleet size and
// routed-job counts.
type healthDoc struct {
	Status         string `json:"status"`
	Workers        int    `json:"workers"`
	HealthyWorkers int    `json:"healthy_workers"`
	Running        int    `json:"running"`
	Draining       bool   `json:"draining"`
}

// Health adds the fleet's size. A coordinator is ready only while a
// worker is healthy — a load balancer in front of several coordinators
// should skip one that cannot place jobs.
func (co *Coordinator) Health(h server.Health) (any, bool) {
	d := healthDoc{Status: h.Status, Running: h.Queued + h.Running, Draining: h.Draining}
	co.mu.Lock()
	d.Workers = len(co.workers)
	for _, w := range co.workers {
		if w.Healthy {
			d.HealthyWorkers++
		}
	}
	co.mu.Unlock()
	return d, d.HealthyWorkers > 0
}

// Routes adds the fleet endpoints.
func (co *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/workers", co.handleWorkers)
	mux.HandleFunc("POST /v1/workers", co.handleRegister)
}

// handleWorkers lists the fleet, stable by URL.
func (co *Coordinator) handleWorkers(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]interface{}{"workers": co.workerDocs()})
}

// handleRegister accepts a worker announcement: {"url": "http://..."}.
// Registration is idempotent and doubles as a keep-alive.
func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body struct {
		URL string `json:"url"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding registration: %w", err), "")
		return
	}
	if body.URL == "" {
		server.WriteError(w, http.StatusBadRequest, errors.New("registration needs a url"), "")
		return
	}
	co.RegisterWorker(body.URL)
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "registered", "url": body.URL})
}
