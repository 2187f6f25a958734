package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/exp"
	wl "repro/internal/workload"
)

// sequence renders the first n requests of every client.
func sequence(t *testing.T, seed int64, n int) []byte {
	t.Helper()
	var reqs []request
	for c := 0; c < clients; c++ {
		g := newClientGen(seed, c)
		for i := 0; i < n; i++ {
			reqs = append(reqs, g.next())
		}
	}
	b, err := json.Marshal(struct {
		Fork, Spmv []exp.JobSpec
		Cluster    []request
	}{forkRotation(seed), spmvRotation(seed), reqs})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameSequences(t *testing.T) {
	for _, seed := range []int64{defaultSeed, 2, 99} {
		if !bytes.Equal(sequence(t, seed, 2000), sequence(t, seed, 2000)) {
			t.Errorf("seed %d: two generations differ", seed)
		}
	}
	if bytes.Equal(sequence(t, 2, 200), sequence(t, 3, 200)) {
		t.Error("seeds 2 and 3 generate the same sequences")
	}
}

// TestDefaultSeedMatchesHarness: the default seed runs exactly the
// fork and spmv specs BENCH_harness.json records.
func TestDefaultSeedMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../" + harnessPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Config struct {
			ForkNames  []string `json:"fork_names"`
			ForkParams struct {
				WarmInstructions, MeasureInstructions uint64
			} `json:"fork_params"`
			SpmvMatrices int `json:"spmv_matrices"`
		} `json:"config"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var want []exp.JobSpec
	for _, b := range doc.Config.ForkNames {
		want = append(want, exp.JobSpec{Experiment: "fork", Bench: b, Parallel: 1,
			Warm: doc.Config.ForkParams.WarmInstructions, Measure: doc.Config.ForkParams.MeasureInstructions})
	}
	if got := forkRotation(defaultSeed); !equalSpecs(got, want) {
		t.Errorf("fork rotation %+v, want %+v", got, want)
	}
	wantSpmv := []exp.JobSpec{{Experiment: "spmv", Matrices: doc.Config.SpmvMatrices, Parallel: 1}}
	if got := spmvRotation(defaultSeed); !equalSpecs(got, wantSpmv) {
		t.Errorf("spmv rotation %+v, want %+v", got, wantSpmv)
	}
}

func equalSpecs(a, b []exp.JobSpec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestForkRotationOneOfEachType: every seed's rotation holds one
// benchmark of each write type, so every run has the same write
// shapes.
func TestForkRotationOneOfEachType(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		seen := map[wl.Type]bool{}
		for _, s := range forkRotation(seed) {
			if err := s.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			w, err := wl.ByName(s.Bench)
			if err != nil {
				t.Fatal(err)
			}
			seen[w.Type] = true
		}
		if len(seen) != 3 {
			t.Errorf("seed %d: rotation covers types %v", seed, seen)
		}
	}
}

// TestClusterSequence: every spec is valid, the path mix is exact in
// every block, and every miss key is unique across both clients and
// distinct from the repeat set's keys.
func TestClusterSequence(t *testing.T) {
	repeatKeys := map[string]bool{}
	for _, s := range repeatSet() {
		if err := s.Validate(); err != nil {
			t.Fatalf("repeat spec %+v: %v", s, err)
		}
		repeatKeys[s.Key()] = true
	}
	if len(repeatKeys) != len(repeatSet()) {
		t.Fatal("repeat set has duplicate keys")
	}
	const n = 12000 // several times what one client sends in a run
	for _, seed := range []int64{defaultSeed, 2, 7} {
		missKeys := map[string]bool{}
		for c := 0; c < clients; c++ {
			g := newClientGen(seed, c)
			count := map[string]int{}
			for i := 0; i < n; i++ {
				r := g.next()
				count[r.Path]++
				if r.Path != pathMiss {
					if r.Spec != repeatSet()[r.Repeat] {
						t.Fatalf("seed %d: %s request for repeat %d carries %+v", seed, r.Path, r.Repeat, r.Spec)
					}
					continue
				}
				if err := r.Spec.Validate(); err != nil {
					t.Fatalf("seed %d: miss %+v: %v", seed, r.Spec, err)
				}
				k := r.Spec.Key()
				if missKeys[k] || repeatKeys[k] {
					t.Fatalf("seed %d client %d request %d: miss key of %+v repeats", seed, c, i, r.Spec)
				}
				missKeys[k] = true
			}
			if count[pathMiss] != n/4 || count[pathHit] != 3*n/8 || count[pathStore] != 3*n/8 {
				t.Errorf("seed %d client %d: path mix %v", seed, c, count)
			}
		}
	}
}

func TestSpreadIsOneToOne(t *testing.T) {
	seen := map[int]bool{}
	for m := 0; m < 3*3001; m++ {
		v := spread(m, 3001)
		if seen[v] {
			t.Fatalf("spread(%d) = %d repeats", m, v)
		}
		seen[v] = true
	}
}
