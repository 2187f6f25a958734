package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// comparableExport renders the parts of an export that must be
// bit-identical between a resumed run and the oracle: results, config,
// counters, histograms and series. Host provenance (Meta) and the
// warm-state reuse tallies are excluded — they document how the run
// executed, not what it simulated.
func comparableExport(t *testing.T, out *JobOutput) []byte {
	t.Helper()
	ex := *out.Export
	ex.Meta = nil
	if ex.Counters != nil {
		c := make(map[string]uint64, len(ex.Counters))
		for k, v := range ex.Counters {
			c[k] = v
		}
		delete(c, SnapForksCounter)
		delete(c, SnapWarmupsCounter)
		ex.Counters = c
	}
	b, err := json.MarshalIndent(&ex, "", " ")
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	return b
}

// oracleMechanism is the reference every resumed run is held to: it
// builds, warms, forks and measures one mechanism in a single
// framework, with no capture and no resume.
func oracleMechanism(t *testing.T, spec workload.Spec, cfg core.Config, params ForkParams, overlayMode bool) MechanismResult {
	t.Helper()
	f, proc, c, err := newForkRun(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(params.WarmInstructions)
	f.Engine.Run()
	if c.Running() {
		t.Fatal("oracle warm-up never finished")
	}
	r, err := measureMechanism(context.Background(), spec, params, overlayMode, f, c, proc)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// runPair runs a one-benchmark fork spec through JobSpec.Run, which
// resumes both mechanisms from one warmed family, and renders the
// export the oracle gives for the same window.
func runPair(t *testing.T, spec JobSpec) (oracle, resumed *JobOutput) {
	t.Helper()
	resumed, err := spec.Run(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	n := spec.Normalized()
	params := ForkParams{WarmInstructions: n.Warm, MeasureInstructions: n.Measure,
		Backend: ForkBackend(n.Backend), SeriesEpoch: sim.DefaultEpoch}
	s := mustSpec(t, n.Bench)
	cfg := ForkConfig(s, params.Backend)
	return forkOutput(params, []ForkResult{{Benchmark: s.Name, Type: s.Type,
		CoW: oracleMechanism(t, s, cfg, params, false),
		OoW: oracleMechanism(t, s, cfg, params, true)}}), resumed
}

// checkCompareLegs runs a compare spec and holds each backend's fork leg
// to the oracle's run of that backend's native mechanism.
func checkCompareLegs(t *testing.T, spec JobSpec) {
	out, err := spec.Run(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatalf("compare run: %v", err)
	}
	report := out.Export.Results.(*CompareReport)
	s := mustSpec(t, report.Bench)
	for _, b := range report.Backends {
		params := ForkParams{WarmInstructions: report.Warm, MeasureInstructions: report.Measure,
			Backend: b.Backend, SeriesEpoch: sim.DefaultEpoch}
		overlay := nativeOverlayMode(b.Backend)
		o := oracleMechanism(t, s, ForkConfig(s, b.Backend), params, overlay)
		want := CompareForkLeg{Bench: s.Name, Mechanism: mechName(overlay), Cycles: o.Cycles, CPI: o.CPI,
			AddedBytes: o.AddedBytes, PageCopies: o.PageCopies, Overlaying: o.Overlaying}
		if b.Fork != want {
			t.Errorf("%s fork leg %+v, oracle %+v", b.Backend, b.Fork, want)
		}
		if w := compareCounters(o.Stats); !reflect.DeepEqual(b.Counters, w) {
			t.Errorf("%s fork leg counters %v, oracle %v", b.Backend, b.Counters, w)
		}
	}
}

// TestForkedMatchesCold is the bit-identity property: every fork window
// is measured in a framework resumed from a family snapshot, and must
// give exactly what the oracle gives by warming, forking and measuring
// in one framework — every cycle count, counter and histogram. The
// specs are drawn from a seeded RNG so successive changes exercise
// shifting corners of the space deterministically.
func TestForkedMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment equivalence sweep is slow")
	}
	rng := rand.New(rand.NewSource(0x5eed))
	benches := workload.Suite()
	bench := benches[rng.Intn(len(benches))].Name
	specs := []JobSpec{
		{Experiment: "fork", Bench: bench,
			Warm:    uint64(30_000 + rng.Intn(3)*10_000),
			Measure: uint64(60_000 + rng.Intn(3)*20_000)},
	}
	// The property must hold per backend: every non-default backend gets
	// its own fork leg (the plain fork spec above covers overlay), and the
	// cross-backend compare experiment must resume bit-identically too.
	for _, b := range core.Backends() {
		if b == core.DefaultBackend {
			continue
		}
		specs = append(specs, JobSpec{Experiment: "fork", Bench: bench, Backend: b,
			Warm: 30_000, Measure: 60_000})
	}
	specs = append(specs, JobSpec{Experiment: "compare", Bench: bench,
		Warm: 30_000, Measure: 60_000, Matrices: 2})
	for _, spec := range specs {
		spec := spec
		name := spec.Experiment
		if spec.Backend != "" {
			name += "/" + spec.Backend
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if spec.Experiment == "compare" {
				checkCompareLegs(t, spec)
				return
			}
			oracle, resumed := runPair(t, spec)
			ob, rb := comparableExport(t, oracle), comparableExport(t, resumed)
			if !bytes.Equal(ob, rb) {
				t.Errorf("resumed export diverges from the oracle\noracle:\n%s\nresumed:\n%s", ob, rb)
			}
		})
	}
	// stats and the ablation benches resume from a family warmed under
	// a config of their own, outside every cache.
	t.Run("custom-config", func(t *testing.T) {
		t.Parallel()
		s := mustSpec(t, bench)
		cfg := ForkConfig(s, "")
		cfg.Cache.L3.NewRepl = cache.NewLRU
		cfg.OverlayRemapLatency = 4000
		params := ForkParams{WarmInstructions: 30_000, MeasureInstructions: 60_000}
		for _, overlay := range []bool{false, true} {
			got, err := runMechanism(context.Background(), s, cfg, params, overlay)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleMechanism(t, s, cfg, params, overlay)
			if g, w := got.Stats.String(), want.Stats.String(); g != w {
				t.Errorf("%s registry diverges\noracle:\n%s\nresumed:\n%s", mechName(overlay), w, g)
			}
			got.Stats, got.Series, want.Stats, want.Series = nil, nil, nil, nil
			if got != want {
				t.Errorf("%s: resumed %+v, oracle %+v", mechName(overlay), got, want)
			}
		}
	})
}

// TestForkedMatchesColdPerRunStats drills into the fork experiment: not
// just the merged export, but every individual run's full registry —
// all counters and histogram dumps — must match between the oracle and
// a fork resumed from the family snapshot.
func TestForkedMatchesColdPerRunStats(t *testing.T) {
	spec := JobSpec{Experiment: "fork", Bench: "mcf", Warm: 30_000, Measure: 60_000}
	oracle, resumed := runPair(t, spec)
	want := oracle.Export.Results.([]ForkResult)
	got, ok := resumed.Export.Results.([]ForkResult)
	if !ok {
		t.Fatalf("resumed results have type %T", resumed.Export.Results)
	}
	if len(want) != len(got) {
		t.Fatalf("result count: oracle %d, resumed %d", len(want), len(got))
	}
	for i := range want {
		for _, m := range []struct {
			name            string
			oracle, resumed *MechanismResult
		}{
			{"cow", &want[i].CoW, &got[i].CoW},
			{"oow", &want[i].OoW, &got[i].OoW},
		} {
			if o, r := m.oracle.Stats.String(), m.resumed.Stats.String(); o != r {
				t.Errorf("%s/%s registry diverges\noracle:\n%s\nresumed:\n%s",
					want[i].Benchmark, m.name, o, r)
			}
		}
	}
	// Reuse accounting for one benchmark: one family, two forks, one
	// warm-up skipped.
	if got := resumed.Export.Counters[SnapForksCounter]; got != 2 {
		t.Errorf("forks counter = %d, want 2", got)
	}
	if got := resumed.Export.Counters[SnapWarmupsCounter]; got != 1 {
		t.Errorf("warmups_reused counter = %d, want 1", got)
	}
}

// TestForkResumeSteadyStateAllocs bounds the steady-state allocation
// rate of a resumed fork: once the first measurement chunk has
// materialised its hot copy-on-write pages and grown the event slabs,
// continuing to run must not allocate per instruction.
func TestForkResumeSteadyStateAllocs(t *testing.T) {
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	fam, err := warmForkFamily(context.Background(), spec, ForkConfig(spec, ""), ForkParams{WarmInstructions: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	f, c, err := fam.resume()
	if err != nil {
		t.Fatal(err)
	}

	// Prime: materialise the workload's hot pages and event slabs.
	c.Run(30_000)
	f.Engine.Run()

	const chunk = 2_000
	allocs := testing.AllocsPerRun(5, func() {
		c.Run(chunk)
		f.Engine.Run()
	})
	// The budget covers stragglers (cold pages materialised late, slab
	// growth); the point is that it does not scale with instructions.
	if allocs > 64 {
		t.Errorf("fork-resume steady state allocates %.0f per %d-instruction chunk, want <= 64", allocs, chunk)
	}
}

// resumed keeps BenchmarkForkResume's result alive.
var resumed *core.Framework

// BenchmarkForkResume times what every forked fork or compare leg pays
// before it measures: core.NewFromSnapshot, the trace replay and
// cpu.Core.Restore, resuming from one hmmer family warmed over 20,000
// instructions.
func BenchmarkForkResume(b *testing.B) {
	spec, err := workload.ByName("hmmer")
	if err != nil {
		b.Fatal(err)
	}
	fam, err := warmForkFamily(context.Background(), spec, ForkConfig(spec, ""), ForkParams{WarmInstructions: 20_000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resumed, _, err = fam.resume(); err != nil {
			b.Fatal(err)
		}
	}
}

// fullWalker maps every page, so each TLB miss fills a way.
type fullWalker struct{}

func (fullWalker) Walk(arch.PID, arch.VPN) (tlb.Entry, sim.Cycle, bool) {
	return tlb.Entry{}, 0, true
}

// fullCaptureBytes returns the cache, TLB and memory-table bytes of a
// capture of cfg's components with every way valid and every frame
// allocated.
func fullCaptureBytes(cfg core.Config) int {
	n := 0
	for i, lc := range []cache.LevelConfig{cfg.Cache.L1, cfg.Cache.L2, cfg.Cache.L3} {
		c := cache.New(fmt.Sprint("l", i+1), lc.Size, lc.Ways, lc.NewRepl)
		for line := 0; line < c.Sets()*c.Ways(); line++ {
			c.Fill(arch.PhysAddr(line<<arch.LineShift), line%2 == 0)
		}
		n += c.Snapshot().Bytes()
	}
	tl := tlb.New(cfg.TLB, fullWalker{}, &sim.Stats{})
	for vpn := 0; vpn < cfg.TLB.L2Entries; vpn++ {
		tl.Lookup(1, arch.VPN(vpn))
	}
	n += tl.Snapshot().Bytes()
	m := mem.New(cfg.MemoryPages)
	for m.FreePages() > 0 {
		if _, err := m.Alloc(); err != nil {
			panic(err)
		}
	}
	return n + m.Snapshot().Bytes()
}

// TestCaptureHoldsOnlyLiveState checks that a family capture's size
// follows what the warm-up touched, not the tables' capacity: after a
// 2,000-instruction hmmer warm-up the caches, TLB and memory tables fill
// a few percent of their slots, and their capture holds at most an
// eighth of a capture of the same components completely full.
func TestCaptureHoldsOnlyLiveState(t *testing.T) {
	spec, err := workload.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	cfg := ForkConfig(spec, "")
	f, _, c, err := newForkRun(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2_000)
	f.Engine.Run()
	live := f.Hier.Snapshot().Bytes() + f.Port(0).TLB.Snapshot().Bytes() + f.Mem.Snapshot().Bytes()
	full := fullCaptureBytes(cfg)
	t.Logf("hmmer after 2,000 instructions: %d capture bytes, full levels %d (%.3f)", live, full, float64(live)/float64(full))
	if live*8 > full {
		t.Errorf("capture holds %d bytes, more than 1/8 of a full capture's %d", live, full)
	}
	snap := f.Snapshot()
	if snap.Bytes() < live {
		t.Errorf("framework capture counts %d bytes, fewer than its caches, TLB and memory alone (%d)", snap.Bytes(), live)
	}
}

func TestSnapshotCache(t *testing.T) {
	c := NewSnapshotCache(2)
	builds := 0
	build := func(v string) func() (any, error) {
		return func() (any, error) { builds++; return v, nil }
	}
	if v, _ := c.getOrBuild("a", build("A")); v != "A" {
		t.Fatalf("got %v", v)
	}
	if v, _ := c.getOrBuild("a", build("A2")); v != "A" {
		t.Fatalf("cached build rebuilt: %v", v)
	}
	if builds != 1 || c.Hits() != 1 || c.Misses() != 1 {
		t.Fatalf("builds=%d hits=%d misses=%d", builds, c.Hits(), c.Misses())
	}
	// Fill past the bound; "a" (recently used) survives, "b" does not.
	c.getOrBuild("b", build("B"))
	c.getOrBuild("a", build("A3"))
	c.getOrBuild("c", build("C"))
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	before := builds
	c.getOrBuild("a", build("A4"))
	if builds != before {
		t.Fatal("LRU evicted the recently used entry")
	}
	c.getOrBuild("b", build("B2"))
	if builds != before+1 {
		t.Fatal("evicted entry was not rebuilt")
	}
}

// sizedValue is a cached value that reports its own size.
type sizedValue int

func (v sizedValue) Bytes() int { return int(v) }

// TestSnapshotCacheBytes checks the running size total: a build adds
// its value's Bytes once, a hit adds nothing, an eviction subtracts and
// a failed build counts nothing and evicts nothing.
func TestSnapshotCacheBytes(t *testing.T) {
	c := NewSnapshotCache(2)
	put := func(key string, n int, err error) {
		c.getOrBuild(key, func() (any, error) { return sizedValue(n), err })
	}
	put("a", 100, nil)
	put("b", 20, nil)
	put("a", 999, nil) // a hit: "a" keeps its first build
	if got := c.Bytes(); got != 120 {
		t.Fatalf("bytes = %d, want 120", got)
	}
	put("c", 3, nil) // evicts "b"
	if got := c.Bytes(); got != 103 {
		t.Fatalf("bytes after an eviction = %d, want 103", got)
	}
	put("d", 50, fmt.Errorf("transient")) // dropped; "a" and "c" stay
	if got := c.Bytes(); got != 103 {
		t.Fatalf("bytes after a failed build = %d, want 103", got)
	}
}

// TestSnapshotCacheBytesConcurrent runs lookups that build, hit and
// evict from several goroutines at once; afterwards the running total
// must equal the resident families' sizes.
func TestSnapshotCacheBytesConcurrent(t *testing.T) {
	c := NewSnapshotCache(3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 5
				c.getOrBuild(fmt.Sprint(k), func() (any, error) { return sizedValue(k + 1), nil })
			}
		}(g)
	}
	wg.Wait()
	want := 0
	for _, el := range c.entries {
		want += int(el.Value.(*snapCacheEntry).value.(sizedValue))
	}
	if got := c.Bytes(); got != want {
		t.Fatalf("bytes = %d, want the resident families' %d", got, want)
	}
}

func TestSnapshotCacheFailedBuildRetries(t *testing.T) {
	c := NewSnapshotCache(4)
	if _, err := c.getOrBuild("k", func() (any, error) {
		return nil, fmt.Errorf("transient")
	}); err == nil {
		t.Fatal("want build error")
	}
	v, err := c.getOrBuild("k", func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("retry after failed build: v=%v err=%v", v, err)
	}
}
