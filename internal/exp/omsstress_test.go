package exp

import (
	"context"
	"testing"
)

// tinyStressParams keeps the working set well above the frame budget so
// every run exercises eviction, spill and refill, while staying fast.
func tinyStressParams() OMSStressParams {
	return OMSStressParams{Tenants: 2, Ops: 3000, Segments: 48, Capacity: 8, Spill: true}
}

func runStress(t *testing.T, p OMSStressParams, parallel int) []OMSStressResult {
	t.Helper()
	results, stats, err := RunOMSStressPool(context.Background(), Pool{Parallel: parallel}, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != p.Tenants {
		t.Fatalf("got %d results, want %d", len(results), p.Tenants)
	}
	if stats == nil {
		t.Fatal("no merged stats registry")
	}
	return results
}

// TestOMSStressSpillsUnderPressure asserts the acceptance-criteria
// scenario: a capacity below the working set completes correctly with
// nonzero eviction/spill/refill traffic, verified reads, and the merged
// registry carrying the counters the serving layer exports.
func TestOMSStressSpillsUnderPressure(t *testing.T) {
	p := tinyStressParams()
	results, stats, err := RunOMSStressPool(context.Background(), Pool{Parallel: 2}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Evictions == 0 || r.Spills == 0 || r.Refills == 0 {
			t.Errorf("tenant %d: no spill traffic: %+v", r.Tenant, r)
		}
		if r.LineChecks == 0 {
			t.Errorf("tenant %d: no verified line reads", r.Tenant)
		}
		if r.FramesOwned > p.Capacity {
			t.Errorf("tenant %d: owns %d frames, budget %d", r.Tenant, r.FramesOwned, p.Capacity)
		}
		if r.PenaltyCycles == 0 {
			t.Errorf("tenant %d: refills charged no spill penalty", r.Tenant)
		}
	}
	for _, name := range []string{"oms.evictions", "oms.spills", "oms.refills", "oms.resident_bytes"} {
		if stats.Get(name) == 0 {
			t.Errorf("merged registry missing %s", name)
		}
	}
}

// TestOMSStressDeterministic asserts bit-identical results across runs
// and worker counts — the property that lets omsstress join the bench
// regression matrix.
func TestOMSStressDeterministic(t *testing.T) {
	p := tinyStressParams()
	a := runStress(t, p, 1)
	b := runStress(t, p, 2)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("tenant %d diverged across worker counts:\n seq %+v\n par %+v", i, a[i], b[i])
		}
	}
}

// TestOMSStressUnlimitedNeverSpills pins the unlimited-capacity mode:
// no budget means no cooling queue and no spill traffic.
func TestOMSStressUnlimitedNeverSpills(t *testing.T) {
	p := tinyStressParams()
	p.Capacity = 0
	for _, r := range runStress(t, p, 2) {
		if r.Evictions != 0 || r.Spills != 0 || r.Refills != 0 || r.SpilledBytes != 0 {
			t.Errorf("tenant %d: unlimited store produced spill traffic: %+v", r.Tenant, r)
		}
	}
}

// TestOMSStressSpecRun drives the experiment through JobSpec.Run and
// checks it matches the direct runner, including the -1 = unlimited
// capacity encoding.
func TestOMSStressSpecRun(t *testing.T) {
	spec := JobSpec{Experiment: "omsstress", Tenants: 2, Ops: 3000, Segments: 48, OMSCapacity: 8}
	out, err := spec.Run(context.Background(), Pool{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	direct := runStress(t, tinyStressParams(), 1)
	got, ok := out.Export.Results.([]OMSStressResult)
	if !ok {
		t.Fatalf("export results are %T", out.Export.Results)
	}
	for i := range direct {
		if got[i] != direct[i] {
			t.Errorf("tenant %d: spec run diverged from direct runner:\n spec   %+v\n direct %+v",
				i, got[i], direct[i])
		}
	}
	if out.Stats == nil || out.Stats.Get("oms.spills") == 0 {
		t.Error("spec run output carries no oms.spills in its stats registry")
	}

	unlimited := JobSpec{Experiment: "omsstress", Tenants: 2, Ops: 1000, Segments: 24, OMSCapacity: -1}
	uout, err := unlimited.Run(context.Background(), Pool{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range uout.Export.Results.([]OMSStressResult) {
		if r.Spills != 0 {
			t.Errorf("oms_capacity -1 still spilled: %+v", r)
		}
	}
}
