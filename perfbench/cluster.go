package main

// The cluster workload: the deployment docs/CLUSTER.md describes, run
// in-process on loopback HTTP. A coordinator with an FSStore in a
// fresh temporary directory shards jobs across two workers built as
// `overlaysim serve -workers=1` builds them; every tier logs JSON at
// info level to a file, keeps per-job tracing on and its default cache
// sizes. Two closed-loop clients replay seeded request sequences with
// ?wait=true.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
)

const cacheHeader = "X-Overlaysim-Cache"

// countedMisses is how many fork misses per client a traced run reads
// sim counters from: a fixed prefix of the seeded sequence, so the
// counts repeat exactly for one seed.
const countedMisses = 16

// tier is one HTTP service of the deployment.
type tier struct {
	url   string
	hs    *http.Server
	drain func(context.Context) error
	done  chan error // Serve's return value
	log   *os.File
}

func startTier(h http.Handler, drain func(context.Context) error, log *os.File) (*tier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tier{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h},
		drain: drain, done: make(chan error, 1), log: log}
	go func() { t.done <- t.hs.Serve(ln) }()
	return t, nil
}

// stop drains the tier's jobs, then closes its listener and
// connections, waits for it and closes its log. Close rather than
// Shutdown: with every job drained nothing is in flight, and Shutdown
// would wait up to 5s for any connection a client dialled but never
// used.
func (t *tier) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(t.drain(ctx), t.hs.Close())
	if serr := <-t.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, t.log.Close())
}

type clusterWorkload struct {
	seed    int64
	workdir string
	repeat  []exp.JobSpec
	bodies  [][]byte // each repeat spec's request body
	client  *http.Client

	// One deployment, built by setup and released by teardown.
	dir        string
	store      *cluster.FSStore
	workers    []*tier
	coord      *tier
	owner      []string            // repeat index → URL of the worker that ran it
	raw        [][]byte            // repeat index → exported result bytes
	refs       map[string][][]byte // path → repeat index → result bytes as that path serves them
	before     map[string]float64  // service counters when the traced phase started
	phaseStart time.Time
}

func newClusterWorkload(seed int64, workdir string) *clusterWorkload {
	w := &clusterWorkload{seed: seed, workdir: workdir, repeat: repeatSet(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	for _, spec := range w.repeat {
		w.bodies = append(w.bodies, specBody(spec))
	}
	return w
}

// specBody renders a spec as a submission body.
func specBody(spec exp.JobSpec) []byte {
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err) // JobSpec is a plain struct; Marshal cannot fail
	}
	return b
}

// logger opens a log file in the deployment's directory behind the
// JSON info-level logger the subcommands install by default.
func (w *clusterWorkload) logger(name string) (*slog.Logger, *os.File, error) {
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return nil, nil, err
	}
	return obs.NewLogger(f, "json", slog.LevelInfo), f, nil
}

// setup starts the three tiers, produces the repeat set through the
// coordinator and sends one confirming request per repeat spec on each
// repeat path. Listeners are bound before anything is sent, so no
// readiness polling is needed.
func (w *clusterWorkload) setup(ctx context.Context) error {
	dir, err := os.MkdirTemp(w.workdir, "perfbench-cluster-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.store, err = cluster.NewFSStore(filepath.Join(dir, "store")); err != nil {
		return err
	}
	var urls []string
	for i := 0; i < 2; i++ {
		logger, f, err := w.logger(fmt.Sprintf("worker%d.log", i))
		if err != nil {
			return err
		}
		// The values `serve -workers=1` passes with its other flags at
		// their defaults.
		srv := server.New(server.Config{Workers: 1, QueueDepth: 16, CacheSize: 128,
			SnapshotCacheSize: 32, Logger: logger})
		t, err := startTier(srv.Handler(), srv.Drain, f)
		if err != nil {
			return errors.Join(err, srv.Drain(ctx), f.Close())
		}
		w.workers = append(w.workers, t)
		urls = append(urls, t.url)
	}
	logger, f, err := w.logger("coordinator.log")
	if err != nil {
		return err
	}
	// The values `coordinator` passes with its flags at their defaults.
	co := cluster.New(cluster.Config{Workers: urls, Store: w.store, HealthInterval: 2 * time.Second,
		RetryAfter: 2 * time.Second, ForwardAttempts: 3, Logger: logger})
	if w.coord, err = startTier(co.Handler(), co.Drain, f); err != nil {
		return errors.Join(err, co.Drain(ctx), f.Close())
	}

	// One at a time: which worker owns a spec depends on the listeners'
	// ports, so concurrent production would make set-up time depend on
	// how the ports happen to split the work.
	w.owner = make([]string, len(w.repeat))
	w.raw = make([][]byte, len(w.repeat))
	for i := range w.repeat {
		if err := w.produce(ctx, i); err != nil {
			return err
		}
	}

	w.refs = map[string][][]byte{pathHit: make([][]byte, len(w.repeat)), pathStore: make([][]byte, len(w.repeat))}
	for i, spec := range w.repeat {
		for _, path := range []string{pathHit, pathStore} {
			req := request{Path: path, Repeat: i, Spec: spec}
			url, body, _ := w.target(req)
			status, cache, raw, err := w.post(ctx, url, body)
			if err != nil {
				return fmt.Errorf("confirming %s on %s: %w", spec.CLIArgs(), path, err)
			}
			result, err := jobResult(path, status, cache, raw)
			if err != nil {
				return fmt.Errorf("confirming %s on %s: %w", spec.CLIArgs(), path, err)
			}
			if !sameJSON(result, w.raw[i]) {
				return fmt.Errorf("confirming %s on %s: result differs from the exported bytes", spec.CLIArgs(), path)
			}
			w.refs[path][i] = result
		}
	}
	return nil
}

// produce runs repeat spec i through the coordinator (a miss) and
// fetches its exported bytes.
func (w *clusterWorkload) produce(ctx context.Context, i int) error {
	spec := w.repeat[i]
	status, cache, raw, err := w.post(ctx, w.coord.url, w.bodies[i])
	if err != nil {
		return fmt.Errorf("producing %s: %w", spec.CLIArgs(), err)
	}
	if _, err := jobResult(pathMiss, status, cache, raw); err != nil {
		return fmt.Errorf("producing %s: %w", spec.CLIArgs(), err)
	}
	var doc server.JobDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("producing %s: %w", spec.CLIArgs(), err)
	}
	result, err := w.get(ctx, w.coord.url+"/v1/jobs/"+doc.ID+"/result")
	if err != nil {
		return fmt.Errorf("producing %s: %w", spec.CLIArgs(), err)
	}
	if _, err := readExport(spec.Experiment, result); err != nil {
		return fmt.Errorf("producing %s: %w", spec.CLIArgs(), err)
	}
	w.owner[i], w.raw[i] = doc.Worker, result
	return nil
}

// target resolves a request to the URL it goes to, its body and the
// bytes its result must equal (nil for a miss).
func (w *clusterWorkload) target(req request) (url string, body, want []byte) {
	switch req.Path {
	case pathHit:
		return w.owner[req.Repeat], w.bodies[req.Repeat], w.refs[pathHit][req.Repeat]
	case pathStore:
		return w.coord.url, w.bodies[req.Repeat], w.refs[pathStore][req.Repeat]
	}
	return w.coord.url, specBody(req.Spec), nil
}

// post submits a spec with ?wait=true.
func (w *clusterWorkload) post(ctx context.Context, url string, body []byte) (status int, cache string, raw []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs?wait=true", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(cacheHeader), raw, err
}

func (w *clusterWorkload) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return raw, err
}

// jobResult checks one response to a ?wait=true submission — a 200,
// the cache header naming the intended path, a job in state done —
// and returns the result document it carries.
func jobResult(path string, status int, cache string, body []byte) ([]byte, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	if cache != path {
		return nil, fmt.Errorf("%s = %q, want %q", cacheHeader, cache, path)
	}
	var doc struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("job document: %w", err)
	}
	if doc.State != server.StateDone {
		return nil, fmt.Errorf("job state %q: %s", doc.State, doc.Error)
	}
	return doc.Result, nil
}

// checkResponse is the per-request output check: a repeat must carry
// exactly its set-up bytes on its path, and a miss a schema-v1 export
// of the requested experiment, whose facts it returns.
func checkResponse(req request, status int, cache string, body, want []byte) (exportFacts, error) {
	result, err := jobResult(req.Path, status, cache, body)
	if err != nil {
		return exportFacts{}, err
	}
	if req.Path != pathMiss {
		if !bytes.Equal(result, want) {
			return exportFacts{}, errors.New("result differs from its set-up bytes")
		}
		return exportFacts{}, nil
	}
	return readExport(req.Spec.Experiment, result)
}

// sameJSON reports whether two JSON documents are byte-identical once
// indentation is removed.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// phase runs both clients until d has passed.
func (w *clusterWorkload) phase(ctx context.Context, d time.Duration, tr *obs.Tracer) (*tally, error) {
	if tr != nil {
		var err error
		if w.before, err = w.scrape(ctx); err != nil {
			return nil, err
		}
	}
	tallies := make([]*tally, clients)
	var wg sync.WaitGroup
	w.phaseStart = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tallies[c] = w.runClient(ctx, c, d, tr)
		}(c)
	}
	wg.Wait()
	t := newTally()
	t.elapsed = time.Since(w.phaseStart)
	for _, ct := range tallies {
		t.merge(ct)
	}
	return t, nil
}

// runClient is one closed-loop client: it sends its next request only
// after the previous one completed.
func (w *clusterWorkload) runClient(ctx context.Context, c int, d time.Duration, tr *obs.Tracer) *tally {
	t := newTally()
	gen := newClientGen(w.seed, c)
	forkMisses := 0
	for time.Since(w.phaseStart) < d {
		req := gen.next()
		url, body, want := w.target(req)
		t.attempted++
		sp := tr.StartSpan(obs.SpanContext{}, "http."+req.Path)
		t0 := time.Now()
		status, cache, raw, err := w.post(ctx, url, body)
		lat := time.Since(t0)
		sp.End()
		if err != nil {
			t.fail("%s %s: %v", req.Path, req.Spec.CLIArgs(), err)
			continue
		}
		facts, err := checkResponse(req, status, cache, raw, want)
		if err != nil {
			t.fail("%s %s: %v", req.Path, req.Spec.CLIArgs(), err)
			continue
		}
		t.lat[req.Path] = append(t.lat[req.Path], lat)
		t.cycles += facts.cycles
		if tr != nil && req.Spec.Experiment == "fork" && req.Path == pathMiss && forkMisses < countedMisses {
			forkMisses++
			t.counted++
			for k, v := range facts.counters {
				t.counters[k] += v
			}
		}
	}
	return t
}

// scrape reads the service counters: server.* from each worker's
// /metrics, coord.* from the coordinator's (whose fleet aggregate
// would otherwise count the workers twice).
func (w *clusterWorkload) scrape(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	read := func(url, prefix string) error {
		raw, err := w.get(ctx, url+"/metrics")
		if err != nil {
			return err
		}
		samples, _, err := sim.ParsePrometheus(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		for _, s := range samples {
			if s.Label == "" && strings.HasPrefix(s.Name, prefix) {
				out[s.Name] += s.Value
			}
		}
		return nil
	}
	for _, t := range w.workers {
		if err := read(t.url, "overlaysim_server_"); err != nil {
			return nil, err
		}
	}
	return out, read(w.coord.url, "overlaysim_coord_")
}

// jobDocs lists a tier's retained job records.
func (w *clusterWorkload) jobDocs(ctx context.Context, url string) ([]server.JobDoc, error) {
	raw, err := w.get(ctx, url+"/v1/jobs")
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []server.JobDoc `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil {
		return nil, fmt.Errorf("job listing: %w", err)
	}
	return list.Jobs, nil
}

// layers reads the service state after a traced phase: counters from
// /metrics, retained records and their span summaries from
// GET /v1/jobs, and FSStore Get/Put times on the run's own keys.
func (w *clusterWorkload) layers(ctx context.Context, t *tally, m values) error {
	after, err := w.scrape(ctx)
	if err != nil {
		return err
	}
	delta := func(name string) float64 {
		n := "overlaysim_" + sim.PromName(name)
		return after[n] - w.before[n]
	}
	m.set("server.lru_hit_ratio", delta("server.cache_hits")/(delta("server.cache_hits")+delta("server.cache_misses")))
	m.set("cluster.store_hit_ratio", delta("coord.store_hits")/delta("coord.jobs_submitted"))
	m.set("cluster.forward_retries", delta("coord.forward_retries"))

	// Engine runs and routed jobs of the phase: their span summaries.
	spanMS := func(docs []server.JobDoc, names ...string) map[string]float64 {
		sum := map[string]time.Duration{}
		jobs := 0
		for _, d := range docs {
			if d.Cached || d.SubmittedAt.Before(w.phaseStart) {
				continue
			}
			jobs++
			for _, sp := range d.Spans {
				sum[sp.Name] += time.Duration(sp.DurUS) * time.Microsecond
			}
		}
		perJob := map[string]float64{}
		for _, n := range names {
			perJob[n] = float64(sum[n]) / float64(time.Millisecond) / float64(jobs)
		}
		for n, d := range sum {
			t.spans[n] += d
		}
		return perJob
	}
	var workerDocs []server.JobDoc
	for _, tr := range w.workers {
		docs, err := w.jobDocs(ctx, tr.url)
		if err != nil {
			return err
		}
		workerDocs = append(workerDocs, docs...)
	}
	m.set("server.jobs_retained", float64(len(workerDocs)))
	srv := spanMS(workerDocs, "queue.wait", "run", "encode")
	m.set("server.queue_wait_ms", srv["queue.wait"])
	m.set("server.run_ms", srv["run"])
	m.set("server.encode_ms", srv["encode"])

	coordDocs, err := w.jobDocs(ctx, w.coord.url)
	if err != nil {
		return err
	}
	m.set("cluster.jobs_retained", float64(len(coordDocs)))
	co := spanMS(coordDocs, "coordinator.job", "forward")
	m.set("cluster.job_ms", co["coordinator.job"])
	m.set("cluster.forward_ms", co["forward"])

	var gets, puts []float64
	for round := 0; round < 5; round++ {
		for i, spec := range w.repeat {
			key := spec.Key()
			t0 := time.Now()
			b, ok, err := w.store.Get(key)
			gets = append(gets, float64(time.Since(t0))/float64(time.Millisecond))
			if err != nil || !ok || !bytes.Equal(b, w.raw[i]) {
				return fmt.Errorf("store entry for %s: found %v, err %v, or bytes differ", spec.CLIArgs(), ok, err)
			}
			t0 = time.Now()
			if err := w.store.Put(key, w.raw[i]); err != nil {
				return err
			}
			puts = append(puts, float64(time.Since(t0))/float64(time.Millisecond))
		}
	}
	m.set("cluster.store_get_ms", median(gets))
	m.set("cluster.store_put_ms", median(puts))
	return nil
}

// teardown stops the tiers (coordinator first, so no job is routed to
// a stopped worker) and removes the deployment's directory.
func (w *clusterWorkload) teardown() error {
	var err error
	if w.coord != nil {
		err = w.coord.stop()
		w.coord = nil
	}
	for _, t := range w.workers {
		err = errors.Join(err, t.stop())
	}
	w.workers = nil
	w.client.CloseIdleConnections()
	if w.dir != "" {
		err = errors.Join(err, os.RemoveAll(w.dir))
		w.dir = ""
	}
	return err
}
