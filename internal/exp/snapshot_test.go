package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cpu"
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
	f := core.NewFromSnapshot(fam.snap)
	trace := spec.NewTrace()
	for i := uint64(0); i < fam.fetched; i++ {
		if _, ok := trace.Next(); !ok {
			t.Fatal("trace exhausted during replay")
		}
	}
	c := cpu.New(f.Engine, f.Port(0), fam.pid, trace)
	c.Restore(fam.cpu)

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
