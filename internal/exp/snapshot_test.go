package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
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
// bit-identical between a cold and a forked run: results, config,
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

// runPair executes one spec cold and forked on a small worker pool.
func runPair(t *testing.T, spec JobSpec) (cold, forked *JobOutput) {
	t.Helper()
	ctx := context.Background()
	spec.Cold = true
	cold, err := spec.Run(ctx, Pool{Parallel: 2})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	spec.Cold = false
	forked, err = spec.Run(ctx, Pool{Parallel: 2})
	if err != nil {
		t.Fatalf("forked run: %v", err)
	}
	return cold, forked
}

// TestForkedMatchesCold is the bit-identity property: for every
// experiment with a warm-state reuse path, a run resumed from family
// snapshots must produce the exact export a from-scratch run produces —
// every cycle count, counter and histogram. The specs are drawn from a
// seeded RNG so successive PRs exercise shifting corners of the space
// deterministically.
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
			cold, forked := runPair(t, spec)
			cb, fb := comparableExport(t, cold), comparableExport(t, forked)
			if !bytes.Equal(cb, fb) {
				t.Errorf("forked export diverges from cold\ncold:\n%s\nforked:\n%s", cb, fb)
			}
			for _, k := range []string{SnapForksCounter, SnapWarmupsCounter} {
				if _, ok := cold.Export.Counters[k]; ok {
					t.Errorf("cold export carries reuse counter %s", k)
				}
			}
		})
	}
}

// TestForkedMatchesColdPerRunStats drills into the fork experiment: not
// just the merged export, but every individual run's full registry —
// all counters and histogram dumps — must match between a cold run and
// a fork resumed from the family snapshot.
func TestForkedMatchesColdPerRunStats(t *testing.T) {
	spec := JobSpec{Experiment: "fork", Bench: "mcf", Warm: 30_000, Measure: 60_000}
	cold, forked := runPair(t, spec)
	cr, ok := cold.Export.Results.([]ForkResult)
	if !ok {
		t.Fatalf("cold results have type %T", cold.Export.Results)
	}
	fr := forked.Export.Results.([]ForkResult)
	if len(cr) != len(fr) {
		t.Fatalf("result count: cold %d, forked %d", len(cr), len(fr))
	}
	for i := range cr {
		for _, m := range []struct {
			name         string
			cold, forked *MechanismResult
		}{
			{"cow", &cr[i].CoW, &fr[i].CoW},
			{"oow", &cr[i].OoW, &fr[i].OoW},
		} {
			if c, f := m.cold.Stats.String(), m.forked.Stats.String(); c != f {
				t.Errorf("%s/%s registry diverges\ncold:\n%s\nforked:\n%s",
					cr[i].Benchmark, m.name, c, f)
			}
		}
	}
	// Reuse accounting for one benchmark: one family, two forks, one
	// warm-up skipped.
	if got := forked.Export.Counters[SnapForksCounter]; got != 2 {
		t.Errorf("forks counter = %d, want 2", got)
	}
	if got := forked.Export.Counters[SnapWarmupsCounter]; got != 1 {
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
	fam, err := warmForkFamily(context.Background(), spec, ForkParams{WarmInstructions: 30_000})
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
	fam, err := warmForkFamily(context.Background(), spec, ForkParams{WarmInstructions: 20_000})
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
