package main

// Seeded inputs. The benchmark takes its seed as an argument and the
// program sees only the specs generated here. Run-to-run spread is
// judged across runs with different seeds, so a seed may change which
// inputs run but not how much work a run does: every choice below is
// between inputs of matched cost.

import (
	"math/rand"

	"repro/internal/exp"
)

// defaultSeed reproduces the matrix BENCH_harness.json records.
const defaultSeed = 1

// The fork window BENCH_harness.json records (fork_params).
const (
	harnessForkWarm    = 60000
	harnessForkMeasure = 150000
	harnessSpmvK       = 6
)

// forkType1 lists the Type-1 benchmarks whose fork job at the harness
// window costs within 10% of hmmer's. No Type-2 or Type-3 benchmark is
// within 10% of lbm or mcf (the next closest cost about 30% less), so
// those two stay fixed.
var forkType1 = []string{"hmmer", "tonto"}

// forkRotation is the fork workload's op rotation: one benchmark of
// each write type at the harness window. The default seed gives the
// harness's hmmer, lbm, mcf; other seeds draw the Type-1 benchmark and
// the order.
func forkRotation(seed int64) []exp.JobSpec {
	benches := []string{"hmmer", "lbm", "mcf"}
	if seed != defaultSeed {
		rng := rand.New(rand.NewSource(seed))
		benches[0] = forkType1[rng.Intn(len(forkType1))]
		rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	}
	specs := make([]exp.JobSpec, len(benches))
	for i, b := range benches {
		specs[i] = exp.JobSpec{Experiment: "fork", Bench: b, Parallel: 1,
			Warm: harnessForkWarm, Measure: harnessForkMeasure}
	}
	return specs
}

// spmvRotation is the spmv workload's op rotation: one job over the
// harness's k matrices. A job's only input is k, and k sets its cost,
// so every seed runs the same job.
func spmvRotation(int64) []exp.JobSpec {
	return []exp.JobSpec{{Experiment: "spmv", Matrices: harnessSpmvK, Parallel: 1}}
}

// Request paths on the cluster workload, named by the
// X-Overlaysim-Cache value each must be answered with.
const (
	pathHit   = "hit"       // direct to the owning worker, from its LRU
	pathStore = "hit-store" // through the coordinator, from its store
	pathMiss  = "miss"      // through the coordinator, simulated on a worker
)

var paths = []string{pathHit, pathStore, pathMiss}

// repeatSet is the cluster's repeated result set: five experiments,
// results from about 0.4 KB to 50 KB, including one all-15 fork at a
// small window. It is the same for every seed, so every run serves
// the same result sizes; twelve specs fit the workers' 128-entry LRU.
func repeatSet() []exp.JobSpec {
	return []exp.JobSpec{
		{Experiment: "fork", Warm: 2000, Measure: 4000},
		{Experiment: "fork", Bench: "hmmer", Warm: 20000, Measure: 40000},
		{Experiment: "fork", Bench: "tonto", Warm: 20000, Measure: 40000},
		{Experiment: "fork", Bench: "lbm", Warm: 20000, Measure: 40000},
		{Experiment: "fork", Bench: "mcf", Warm: 20000, Measure: 40000},
		{Experiment: "fork", Bench: "omnet", Warm: 20000, Measure: 30000},
		{Experiment: "spmv", Matrices: 1},
		{Experiment: "sweep", Points: 4, Rows: 64},
		{Experiment: "sweep", Points: 3, Rows: 128},
		{Experiment: "omsstress", Tenants: 3, Ops: 2000, Segments: 48},
		{Experiment: "omsstress", Tenants: 2, Ops: 4000, Segments: 64, OMSCapacity: 16},
		{Experiment: "dualcore"},
	}
}

// request is one cluster request: its path, the repeat-set index it
// asks for (-1 for a miss) and its spec.
type request struct {
	Path   string      `json:"path"`
	Repeat int         `json:"repeat"`
	Spec   exp.JobSpec `json:"spec"`
}

// clients is the cluster workload's closed-loop client count.
const clients = 2

// pathBlock is the request mix: one request in four is a miss, the
// rest split evenly between hit and hit-store. Each client sends it in
// blocks, shuffled within a block, so every run has this mix exactly
// whatever the seed.
var pathBlock = []string{pathMiss, pathMiss, pathHit, pathHit, pathHit, pathStore, pathStore, pathStore}

// clientGen yields one client's request sequence. Hits and hit-stores
// each cycle through the repeat set in a seeded order, so every repeat
// spec is re-read long before misses could push it out of its
// worker's LRU; misses alternate, in seeded order within each pair,
// between a fork and an omsstress spec.
type clientGen struct {
	rng         *rand.Rand
	client      int
	repeat      []exp.JobSpec
	block       []string
	kinds       []string
	hits        []int
	stores      []int
	nFork, nOMS int
}

func newClientGen(seed int64, client int) *clientGen {
	return &clientGen{
		rng:    rand.New(rand.NewSource(seed*clients + int64(client))),
		client: client,
		repeat: repeatSet(),
	}
}

func (g *clientGen) next() request {
	switch path := g.take(&g.block, pathBlock); path {
	case pathHit:
		return g.repeatRequest(path, &g.hits)
	case pathStore:
		return g.repeatRequest(path, &g.stores)
	}
	return g.miss()
}

// take pops the next element of a seeded shuffle of all, starting a
// new shuffle when the current one is used up.
func (g *clientGen) take(queue *[]string, all []string) string {
	if len(*queue) == 0 {
		*queue = append([]string(nil), all...)
		g.rng.Shuffle(len(*queue), func(i, j int) { (*queue)[i], (*queue)[j] = (*queue)[j], (*queue)[i] })
	}
	v := (*queue)[0]
	*queue = (*queue)[1:]
	return v
}

func (g *clientGen) repeatRequest(path string, cycle *[]int) request {
	if len(*cycle) == 0 {
		*cycle = g.rng.Perm(len(g.repeat))
	}
	i := (*cycle)[0]
	*cycle = (*cycle)[1:]
	return request{Path: path, Repeat: i, Spec: g.repeat[i]}
}

// miss returns a fresh cheap spec: a Type-1 fork at a small window or
// a small omsstress run, about 5-40 ms each. Its key is unique across
// both clients because its varied field is a bijection of a per-kind
// index that interleaves the clients (2i+client), so no miss joins
// another through single-flight or finds a stored result.
func (g *clientGen) miss() request {
	if g.take(&g.kinds, []string{"fork", "omsstress"}) == "fork" {
		n := clients*g.nFork + g.client
		g.nFork++
		return request{Path: pathMiss, Repeat: -1, Spec: missFork(n)}
	}
	n := clients*g.nOMS + g.client
	g.nOMS++
	return request{Path: pathMiss, Repeat: -1, Spec: missOMS(n)}
}

// missForkBenches share one warm window, so the misses' snapshot
// families (one per benchmark) fit the workers' 32-entry cache.
var missForkBenches = []string{"hmmer", "tonto", "libq", "sphinx3"}

func missFork(n int) exp.JobSpec {
	b := len(missForkBenches)
	return exp.JobSpec{Experiment: "fork", Bench: missForkBenches[n%b],
		Warm: 5000, Measure: 5000 + uint64(spread(n/b, 10007))}
}

func missOMS(n int) exp.JobSpec {
	c := n % 8
	return exp.JobSpec{Experiment: "omsstress", Tenants: 1 + c%2, Segments: 8 * (1 + c/2),
		Ops: 300 + spread(n/8, 3001)}
}

// spread maps 0, 1, 2, ... one-to-one onto the naturals, scattering
// each block of p (a prime) over [0, p) so that a miss's cost does not
// drift with its position in the run.
func spread(m, p int) int {
	return (m%p)*7919%p + p*(m/p)
}
