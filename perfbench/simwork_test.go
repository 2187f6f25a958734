package main

import (
	"context"
	"testing"
)

// TestDefaultSeedOutputsMatchHarness sets up the default seed's fork
// rotation and spmv job twice each: the outputs must repeat byte for
// byte and carry exactly the cycles and added bytes BENCH_harness.json
// records.
func TestDefaultSeedOutputsMatchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the recorded fork and spmv jobs")
	}
	for _, w := range []*simWorkload{
		newSimWorkload("fork", forkRotation(defaultSeed)),
		newSimWorkload("spmv", spmvRotation(defaultSeed)),
	} {
		w.harness = "../" + harnessPath
		for i := 0; i < 2; i++ {
			if err := w.setup(context.Background()); err != nil {
				t.Fatalf("%s set-up %d: %v", w.experiment, i+1, err)
			}
		}
		if len(w.cycles) != len(w.rotation) || w.cycles[0] == 0 {
			t.Errorf("%s: simulated cycles per op %v", w.experiment, w.cycles)
		}
	}
}
