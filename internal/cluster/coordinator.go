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
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
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

	// ForwardTimeout caps one forwarding POST or result fetch
	// (0 = 30s). The SSE watch itself is unbounded — jobs run as long
	// as they run.
	ForwardTimeout time.Duration

	// Logger receives structured records for routing decisions, health
	// transitions and HTTP requests (nil = discarded).
	Logger *slog.Logger

	// TraceCap bounds each job's span buffer (0 = 512);
	// DisableTracing turns the coordinator's spans off entirely.
	TraceCap       int
	DisableTracing bool

	// Client overrides the HTTP client used to talk to workers (nil =
	// a default with no global timeout; per-call contexts bound the
	// non-streaming requests).
	Client *http.Client
}

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
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	if c.TraceCap <= 0 {
		c.TraceCap = 512
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// workerState is one shard as the coordinator sees it.
type workerState struct {
	url        string
	healthy    bool
	registered bool // arrived via POST /v1/workers (vs static config)
	lastSeen   time.Time
	jobs       uint64 // jobs this coordinator routed here
}

// WorkerDoc is the wire form of a shard in GET /v1/workers.
type WorkerDoc struct {
	URL        string    `json:"url"`
	Healthy    bool      `json:"healthy"`
	Registered bool      `json:"registered"`
	LastSeen   time.Time `json:"last_seen,omitempty"`
	Jobs       uint64    `json:"jobs"`
}

// Coordinator routes jobs across a worker fleet. Construct with New
// (the health loop starts immediately), serve its Handler, stop with
// Drain.
type Coordinator struct {
	cfg    Config
	client *http.Client

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// statsMu guards the telemetry registry plus the labelled tallies
	// rendered beside it (HTTP statuses, per-worker routing counts).
	statsMu      sync.Mutex
	stats        *sim.Stats
	statusCounts map[int]uint64

	mu       sync.Mutex
	workers  map[string]*workerState
	jobs     map[string]*cjob
	order    []*cjob
	inflight map[string]*cjob // digest → routed, not yet terminal
	draining bool
	seq      int

	wg sync.WaitGroup
}

// New builds the coordinator and starts its health-check loop.
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	co := &Coordinator{
		cfg:          cfg,
		client:       cfg.Client,
		baseCtx:      ctx,
		baseCancel:   cancel,
		stats:        &sim.Stats{},
		statusCounts: make(map[int]uint64),
		workers:      make(map[string]*workerState),
		jobs:         make(map[string]*cjob),
		inflight:     make(map[string]*cjob),
	}
	for _, u := range cfg.Workers {
		// Statically configured workers start healthy and are corrected
		// by the first probe; jobs submitted before it complete their
		// own liveness discovery by failing over.
		co.workers[u] = &workerState{url: u, healthy: true}
	}
	co.wg.Add(1)
	go co.healthLoop()
	return co
}

func (co *Coordinator) addStat(name string, n uint64) {
	co.statsMu.Lock()
	co.stats.Add(name, n)
	co.statsMu.Unlock()
}

// RegisterWorker adds (or refreshes) a shard. A re-registration marks
// the worker healthy immediately — it is how a restarted worker
// announces it is back, and how a restarted coordinator re-learns a
// fleet it forgot.
func (co *Coordinator) RegisterWorker(url string) {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, ok := co.workers[url]
	if !ok {
		w = &workerState{url: url, registered: true}
		co.workers[url] = w
		co.cfg.Logger.Info("worker registered", "worker", url, "fleet", len(co.workers))
	}
	if !w.healthy {
		co.cfg.Logger.Info("worker healthy", "worker", url, "via", "registration")
	}
	w.healthy = true
	w.registered = true
	w.lastSeen = time.Now()
}

// workerDocs snapshots the fleet for the API.
func (co *Coordinator) workerDocs() []WorkerDoc {
	co.mu.Lock()
	defer co.mu.Unlock()
	docs := make([]WorkerDoc, 0, len(co.workers))
	for _, w := range co.workers {
		docs = append(docs, WorkerDoc{
			URL: w.url, Healthy: w.healthy, Registered: w.registered,
			LastSeen: w.lastSeen, Jobs: w.jobs,
		})
	}
	return docs
}

// healthyWorkers snapshots the URLs currently believed routable.
// Caller holds the mutex.
func (co *Coordinator) healthyWorkersLocked() []string {
	urls := make([]string, 0, len(co.workers))
	for _, w := range co.workers {
		if w.healthy {
			urls = append(urls, w.url)
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
	if !ok || !w.healthy {
		return
	}
	w.healthy = false
	co.addStat("coord.worker_down", 1)
	co.cfg.Logger.Warn("worker unhealthy", "worker", url, "why", why)
}

// healthLoop probes every worker's /readyz each interval. A worker
// that answers 200 is routable; anything else — including a draining
// worker's 503 — takes it out of the rendezvous ranking until it
// recovers.
func (co *Coordinator) healthLoop() {
	defer co.wg.Done()
	t := time.NewTicker(co.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-co.baseCtx.Done():
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
			healthy := co.probe(u)
			co.mu.Lock()
			w, ok := co.workers[u]
			if ok {
				if healthy {
					if !w.healthy {
						co.cfg.Logger.Info("worker healthy", "worker", u, "via", "probe")
					}
					w.healthy = true
					w.lastSeen = time.Now()
				} else if w.healthy {
					w.healthy = false
					co.addStat("coord.worker_down", 1)
					co.cfg.Logger.Warn("worker unhealthy", "worker", u, "why", "readyz probe failed")
				}
			}
			co.mu.Unlock()
		}
	}
}

// probe is one readiness check.
func (co *Coordinator) probe(url string) bool {
	ctx, cancel := context.WithTimeout(co.baseCtx, co.cfg.HealthInterval)
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

// Submission outcomes forward() distinguishes for the HTTP layer.
var (
	errAllSaturated   = errors.New("every reachable shard is saturated; retry shortly")
	errNoWorkers      = errors.New("no healthy workers")
	errDraining       = errors.New("coordinator is draining; not accepting jobs")
	errAttemptsSpent  = errors.New("job re-routed too many times")
	errWorkerRejected = errors.New("worker rejected the spec")
)

// submit registers a submission, answering from the persistent store
// or joining an in-flight duplicate when possible; otherwise it
// forwards the job to its rendezvous shard synchronously and hands
// the accepted job to a watcher goroutine. The returned status is the
// HTTP status to answer with; joined marks a single-flight join.
func (co *Coordinator) submit(spec exp.JobSpec, requestID string, remote obs.SpanContext) (j *cjob, status int, joined bool, err error) {
	key := spec.Key()
	co.mu.Lock()
	co.addStat("coord.jobs_submitted", 1)
	if co.draining {
		co.mu.Unlock()
		return nil, http.StatusServiceUnavailable, false, errDraining
	}
	if dup, ok := co.inflight[key]; ok {
		// Single-flight: identical concurrent submissions collapse onto
		// the routed job; one engine run serves them all.
		co.addStat("coord.singleflight_hits", 1)
		co.cfg.Logger.Info("job joined in-flight duplicate",
			"job_id", dup.id, "request_id", requestID, "experiment", spec.Experiment)
		co.mu.Unlock()
		return dup, http.StatusAccepted, true, nil
	}
	if co.cfg.Store != nil {
		switch result, ok, serr := co.cfg.Store.Get(key); {
		case serr != nil:
			co.addStat("coord.store_errors", 1)
			co.cfg.Logger.Warn("result store read failed",
				"key", key, "request_id", requestID, "err", serr.Error())
		case ok:
			co.addStat("coord.store_hits", 1)
			j := co.newJobLocked(spec, key, requestID, remote)
			j.completeFromStoreLocked(result)
			co.cfg.Logger.Info("job served from store",
				"job_id", j.id, "request_id", requestID, "experiment", spec.Experiment)
			co.mu.Unlock()
			return j, http.StatusOK, false, nil
		}
	}
	j = co.newJobLocked(spec, key, requestID, remote)
	co.inflight[key] = j
	co.mu.Unlock()

	// First forward happens on the submitter's request so saturation
	// (429) and fleet loss (503) surface synchronously with the right
	// status; after acceptance a watcher owns the job.
	ctx, cancel := context.WithCancel(co.baseCtx)
	co.mu.Lock()
	j.cancel = cancel
	co.mu.Unlock()
	worker, remoteID, ferr := co.forward(ctx, j)
	if ferr != nil {
		cancel()
		co.fail(j, ferr)
		switch {
		case errors.Is(ferr, errAllSaturated):
			return j, http.StatusTooManyRequests, false, ferr
		case errors.Is(ferr, errWorkerRejected):
			return j, http.StatusBadGateway, false, ferr
		default:
			return j, http.StatusServiceUnavailable, false, ferr
		}
	}
	co.wg.Add(1)
	go func() {
		defer co.wg.Done()
		defer cancel()
		co.watch(ctx, j, worker, remoteID)
	}()
	return j, http.StatusAccepted, false, nil
}

// forward routes one job to the best healthy shard: rendezvous order,
// skipping workers that refuse. A connection error or 5xx marks the
// worker unhealthy and moves on; 429 notes saturation and moves on.
// On acceptance the worker's job ID is returned for watching.
func (co *Coordinator) forward(ctx context.Context, j *cjob) (worker, remoteID string, err error) {
	body, err := json.Marshal(j.spec)
	if err != nil {
		return "", "", fmt.Errorf("encoding spec: %w", err)
	}
	co.mu.Lock()
	candidates := Rank(j.key, co.healthyWorkersLocked())
	attempt := j.attempts
	co.mu.Unlock()
	if len(candidates) == 0 {
		return "", "", errNoWorkers
	}
	saturated := false
	for _, w := range candidates {
		if attempt >= co.cfg.ForwardAttempts {
			return "", "", errAttemptsSpent
		}
		attempt++
		doc, status, ferr := co.postJob(ctx, w, body, j)
		co.mu.Lock()
		j.attempts = attempt
		co.mu.Unlock()
		switch {
		case ferr != nil:
			if ctx.Err() != nil {
				return "", "", ctx.Err()
			}
			co.markUnhealthy(w, ferr.Error())
			continue
		case status == http.StatusOK || status == http.StatusAccepted:
			co.mu.Lock()
			j.worker = w
			j.remoteID = doc.ID
			if j.state == server.StateQueued {
				j.state = server.StateRunning
				j.started = time.Now()
			}
			j.notifySubs()
			if ws, ok := co.workers[w]; ok {
				ws.jobs++
			}
			co.mu.Unlock()
			co.addStat("coord.jobs_forwarded", 1)
			co.cfg.Logger.Info("job forwarded",
				"job_id", j.id, "worker", w, "remote_id", doc.ID,
				"attempt", attempt, "cached", doc.Cached)
			return w, doc.ID, nil
		case status == http.StatusTooManyRequests:
			saturated = true
			co.cfg.Logger.Info("worker saturated", "job_id", j.id, "worker", w)
			continue
		case status == http.StatusServiceUnavailable:
			co.markUnhealthy(w, "draining")
			continue
		case status == http.StatusBadRequest:
			// The coordinator validated this spec; a worker 400 means
			// version skew, and another worker may be newer.
			co.cfg.Logger.Warn("worker rejected spec",
				"job_id", j.id, "worker", w, "err", doc.Error)
			err = fmt.Errorf("%w: %s", errWorkerRejected, doc.Error)
			continue
		default:
			co.markUnhealthy(w, fmt.Sprintf("unexpected status %d", status))
			continue
		}
	}
	switch {
	case saturated:
		return "", "", errAllSaturated
	case err != nil:
		return "", "", err
	default:
		return "", "", errNoWorkers
	}
}

// postJob submits the spec to one worker. The forward span's
// traceparent rides along, so the worker's job trace joins the
// coordinator's; the worker's error body (if any) is decoded into the
// returned doc's Error.
func (co *Coordinator) postJob(ctx context.Context, worker string, body []byte, j *cjob) (server.JobDoc, int, error) {
	var doc server.JobDoc
	ctx, cancel := context.WithTimeout(ctx, co.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		worker+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return doc, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if j.requestID != "" {
		req.Header.Set("X-Request-ID", j.requestID)
	}
	co.mu.Lock()
	fwd := j.tracer.StartSpan(j.span.Context(), "forward")
	fwd.SetAttr("worker", worker)
	co.mu.Unlock()
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
func (co *Coordinator) watch(ctx context.Context, j *cjob, worker, remoteID string) {
	for {
		state, doc, err := co.follow(ctx, j, worker, remoteID)
		if err == nil {
			switch state {
			case server.StateDone:
				result, rerr := co.fetchResult(ctx, worker, remoteID)
				if rerr != nil {
					// Completed on the worker but unretrievable (it died
					// between the event and the fetch, or served invalid
					// JSON): re-run elsewhere.
					co.cfg.Logger.Warn("result fetch failed",
						"job_id", j.id, "worker", worker, "err", rerr.Error())
					co.markUnhealthy(worker, "result fetch failed")
				} else {
					co.complete(j, result)
					return
				}
			case server.StateFailed:
				co.fail(j, errors.New(doc.Error))
				return
			case server.StateCancelled:
				co.mu.Lock()
				co.terminalizeLocked(j, server.StateCancelled, doc.Error)
				co.mu.Unlock()
				co.addStat("coord.jobs_cancelled", 1)
				return
			}
		}
		if ctx.Err() != nil {
			// Cancelled coordinator-side (DELETE or drain): tell the
			// worker, best-effort, and finish.
			co.cancelRemote(worker, remoteID)
			co.mu.Lock()
			co.terminalizeLocked(j, server.StateCancelled, context.Canceled.Error())
			co.mu.Unlock()
			co.addStat("coord.jobs_cancelled", 1)
			return
		}
		if err != nil {
			co.markUnhealthy(worker, fmt.Sprintf("event stream broke: %v", err))
		}
		co.addStat("coord.forward_retries", 1)
		co.cfg.Logger.Warn("re-routing job", "job_id", j.id, "lost_worker", worker)
		var ferr error
		worker, remoteID, ferr = co.forward(ctx, j)
		if ferr != nil {
			co.fail(j, fmt.Errorf("re-routing after worker loss: %w", ferr))
			return
		}
	}
}

// follow consumes one worker's SSE stream for the job until a
// terminal event or a stream error. Progress events update the local
// record; the terminal event's state and doc are returned.
func (co *Coordinator) follow(ctx context.Context, j *cjob, worker, remoteID string) (string, server.JobDoc, error) {
	var doc server.JobDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		worker+"/v1/jobs/"+remoteID+"/events", nil)
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
				co.mu.Lock()
				j.progress, j.hasProg = p, true
				j.notifySubs()
				co.mu.Unlock()
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
func (co *Coordinator) fetchResult(ctx context.Context, worker, remoteID string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, co.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		worker+"/v1/jobs/"+remoteID+"/result", nil)
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
func (co *Coordinator) cancelRemote(worker, remoteID string) {
	ctx, cancel := context.WithTimeout(context.Background(), co.cfg.ForwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		worker+"/v1/jobs/"+remoteID, nil)
	if err != nil {
		return
	}
	if resp, err := co.client.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
}

// complete finishes a job with its result: write-through to the
// store, then publish.
func (co *Coordinator) complete(j *cjob, result []byte) {
	if co.cfg.Store != nil {
		if serr := co.cfg.Store.Put(j.key, result); serr != nil {
			co.addStat("coord.store_errors", 1)
			co.cfg.Logger.Warn("result store write failed", "key", j.key, "err", serr.Error())
		} else {
			co.addStat("coord.store_puts", 1)
		}
	}
	co.mu.Lock()
	j.result = result
	co.terminalizeLocked(j, server.StateDone, "")
	co.mu.Unlock()
	co.addStat("coord.jobs_completed", 1)
	co.cfg.Logger.Info("job finished", "job_id", j.id, "worker", j.worker,
		"state", server.StateDone, "attempts", j.attempts)
}

// fail finishes a job with an error.
func (co *Coordinator) fail(j *cjob, err error) {
	co.mu.Lock()
	co.terminalizeLocked(j, server.StateFailed, err.Error())
	co.mu.Unlock()
	co.addStat("coord.jobs_failed", 1)
	co.cfg.Logger.Error("job failed", "job_id", j.id, "err", err.Error())
}

// cancelJob cancels a routed job. The watcher observes the context
// cancellation, forwards DELETE to the worker and terminalizes.
func (co *Coordinator) cancelJob(id string) (*cjob, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	j, ok := co.jobs[id]
	if !ok {
		return nil, errNoSuchJob
	}
	if j.terminal() {
		return j, fmt.Errorf("job %s is already %s", id, j.state)
	}
	if j.cancel != nil {
		j.cancel()
	}
	return j, nil
}

var errNoSuchJob = errors.New("no such job")

// Drain stops intake, cancels the health loop, and gives routed jobs
// until ctx expires to finish before cancelling them.
func (co *Coordinator) Drain(ctx context.Context) error {
	co.mu.Lock()
	co.draining = true
	co.mu.Unlock()

	done := make(chan struct{})
	go func() {
		co.waitJobs()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		co.mu.Lock()
		forced := 0
		for _, j := range co.order {
			if !j.terminal() && j.cancel != nil {
				j.cancel()
				forced++
			}
		}
		co.mu.Unlock()
		err = fmt.Errorf("drain grace period expired; cancelled %d routed jobs", forced)
	}
	co.baseCancel()
	co.wg.Wait()
	return err
}

// waitJobs blocks until every registered job is terminal.
func (co *Coordinator) waitJobs() {
	for {
		co.mu.Lock()
		var pending *cjob
		for _, j := range co.order {
			if !j.terminal() {
				pending = j
				break
			}
		}
		co.mu.Unlock()
		if pending == nil {
			return
		}
		<-pending.done
	}
}

// Draining reports whether Drain has begun.
func (co *Coordinator) Draining() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.draining
}
