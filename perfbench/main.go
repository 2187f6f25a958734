// Command perfbench is the repository's benchmark. It runs one seeded
// workload in-process through the program's public entry points
// (exp.JobSpec.Run, sim.Export.WriteJSON, server.New, cluster.New,
// cluster.NewFSStore), checks every output, and prints one JSON result
// line: end-to-end metrics from a timed run, or per-layer metrics from
// a separate traced run. README.md in this directory describes the
// workloads and metrics. Run it from the repository root through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload fork --seed 1 --seconds 24 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// rounds is how many rounds a run splits its measuring time into. A
// timed round is a fresh set-up followed by a timed phase, and every
// end-to-end metric is the median over the rounds: a burst of host
// contention during one round does not move it, and setup_s is the
// median of several set-ups.
const rounds = 4

// traceCap bounds the benchmark's own span store in a traced run.
const traceCap = 1 << 17

// workload is one benchmark workload.
type workload interface {
	// setup prepares everything the first timed op needs.
	setup(ctx context.Context) error
	// phase runs ops for at least d and tallies them. A non-nil tracer
	// records the benchmark's spans and, where the workload passes it
	// on, the program's.
	phase(ctx context.Context, d time.Duration, tr *obs.Tracer) (*tally, error)
	// layers adds the workload's own per-layer values after a traced
	// phase: service counters, job records, store and suite timings.
	layers(ctx context.Context, t *tally, m values) error
	// teardown releases what setup built.
	teardown() error
}

// tally is what one timed phase did.
type tally struct {
	elapsed   time.Duration
	attempted int
	failed    int
	lat       map[string][]time.Duration // successful ops by path ("op" on sim workloads)
	cycles    uint64                     // simulated cycles in successful ops' results
	counters  map[string]uint64          // summed sim counters of the counted ops
	counted   int                        // ops whose counters are summed
	spans     map[string]time.Duration   // span time by span name (traced phases)
	errs      []string                   // first few failure reasons
}

func newTally() *tally {
	return &tally{lat: map[string][]time.Duration{}, counters: map[string]uint64{},
		spans: map[string]time.Duration{}}
}

// fail counts one failed op; failed ops give no latency sample.
func (t *tally) fail(format string, args ...interface{}) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// merge adds another client's tally (same phase) into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for p, l := range o.lat {
		t.lat[p] = append(t.lat[p], l...)
	}
	t.cycles += o.cycles
	for k, v := range o.counters {
		t.counters[k] += v
	}
	t.counted += o.counted
	for k, v := range o.spans {
		t.spans[k] += v
	}
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

func (t *tally) ok() int { return t.attempted - t.failed }

func (t *tally) opsPerSec() float64 { return float64(t.ok()) / t.elapsed.Seconds() }

// allLatencies pools every path's latencies in milliseconds.
func (t *tally) allLatencies() []float64 {
	var all []float64
	for _, l := range t.lat {
		all = append(all, millis(l)...)
	}
	return all
}

// result is the benchmark's output line.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Metrics   values `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: fork, spmv or cluster")
	seed := flag.Int64("seed", defaultSeed, "input seed (the default reproduces BENCH_harness.json's matrix)")
	seconds := flag.Int("seconds", 12, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0 = timed run with end-to-end metrics, 1 = traced run with per-layer metrics")
	workdir := flag.String("workdir", "", "directory for the cluster's temporary files (default: the system's)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = traced(context.Background(), w, d)
	} else {
		res, err = timed(context.Background(), w, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string, seed int64, workdir string) (workload, error) {
	switch name {
	case "fork":
		return newSimWorkload("fork", forkRotation(seed)), nil
	case "spmv":
		return newSimWorkload("spmv", spmvRotation(seed)), nil
	case "cluster":
		return newClusterWorkload(seed, workdir), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fork, spmv or cluster)", name)
}

// timed is the end-to-end run: rounds rounds, each a fresh set-up and
// a phase of d/rounds with tracing off.
func timed(ctx context.Context, w workload, d time.Duration) (*result, error) {
	res := &result{}
	var setup, ops, p50, mcycles []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, errors.Join(err, w.teardown())
		}
		setup = append(setup, time.Since(t0).Seconds())
		t, err := w.phase(ctx, d/rounds, nil)
		if err = errors.Join(err, w.teardown()); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d: set-up %.3fs\n", r+1, setup[r])
		report(t)
		res.Attempted += t.attempted
		res.Failed += t.failed
		ops = append(ops, t.opsPerSec())
		p50 = append(p50, median(t.allLatencies()))
		mcycles = append(mcycles, float64(t.cycles)/1e6/t.elapsed.Seconds())
	}
	m := values{}
	m.set("setup_s", median(setup))
	m.set("ops_per_s", median(ops))
	m.set("op_p50_ms", median(p50))
	m.set("sim_mcycles_per_s", median(mcycles))
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss)
	res.Correct = res.Failed == 0
	res.Metrics = m.only(endToEnd)
	return res, nil
}

// traced is the per-layer run: one untraced round for the overhead
// baseline, then a round whose phase runs under a CPU profile with the
// benchmark's and the program's spans recorded.
func traced(ctx context.Context, w workload, d time.Duration) (*result, error) {
	d /= rounds
	if err := w.setup(ctx); err != nil {
		return nil, errors.Join(err, w.teardown())
	}
	base, err := w.phase(ctx, d, nil)
	if err = errors.Join(err, w.teardown()); err != nil {
		return nil, err
	}
	if err := w.setup(ctx); err != nil {
		return nil, errors.Join(err, w.teardown())
	}

	tr := obs.NewTracer(obs.TraceID{}, traceCap)
	rt0 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, errors.Join(err, w.teardown())
	}
	t, err := w.phase(ctx, d, tr)
	pprof.StopCPUProfile()
	rt1 := readRuntime()
	if err != nil {
		return nil, errors.Join(err, w.teardown())
	}
	report(t)

	m := values{}
	if err := w.layers(ctx, t, m); err != nil {
		return nil, errors.Join(err, w.teardown())
	}
	if err := w.teardown(); err != nil {
		return nil, err
	}
	layers, err := layerTimes(prof.Bytes())
	if err != nil {
		return nil, err
	}
	fillLayers(m, t, tr.Spans(), layers, rt0, rt1)
	m.set("bench.trace_overhead_pct", 100*(base.opsPerSec()-t.opsPerSec())/base.opsPerSec())
	return &result{Correct: t.failed == 0 && base.failed == 0,
		Attempted: base.attempted + t.attempted, Failed: base.failed + t.failed,
		Metrics: m.only(perLayer)}, nil
}

// report prints a phase's failures and latency summary to stderr.
func report(t *tally) {
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d ops in %.2fs, %d failed\n", t.attempted, t.elapsed.Seconds(), t.failed)
	for _, p := range append([]string{"op"}, paths...) {
		l := millis(t.lat[p])
		if len(l) == 0 {
			continue
		}
		tail := "p90 needs 100 samples"
		if p90, ok := tailPercentile(l, 90); ok {
			tail = fmt.Sprintf("p90=%.3fms", p90)
		}
		fmt.Fprintf(os.Stderr, "perfbench:   %-9s n=%-6d p50=%.3fms %s\n", p, len(l), median(l), tail)
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
