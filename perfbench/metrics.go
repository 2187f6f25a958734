package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"repro/internal/obs"
)

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names and units (a test checks).
type metricDef struct {
	name, unit string
}

// endToEnd is what a timed run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"sim_mcycles_per_s", "Mcycles/s"},
	{"peak_rss_mb", "MiB"},
}

// selfLayers are the layers whose CPU-profile self time a traced run
// reports as <layer>.self_ms per op: the repo's modules, plus net
// (net/http), bench (the benchmark's own code) and runtime.bg_ms.
var selfLayers = []string{
	"sim", "cpu", "workload", "cache", "prefetch", "coherence", "dram", "tlb", "vm",
	"core", "mem", "omt", "oms", "arch", "sparse", "exp", "harness",
	"server", "cluster", "obs", layerNet, layerBench,
}

// perLayer is what a traced run reports, on every workload; a layer
// that does no work on a workload reports 0 there.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfLayers {
		defs = append(defs, metricDef{l + ".self_ms", "ms"})
	}
	return append(defs, []metricDef{
		{"sim.host_ns_per_instruction", "ns"},
		{"sim.export_encode_ms", "ms"},
		{"cpu.instructions", "count"},
		{"cache.host_ns_per_access", "ns"},
		{"cache.l1.hit_ratio", "ratio"},
		{"cache.l3.misses", "count"},
		{"prefetch.issued", "count"},
		{"dram.host_ns_per_request", "ns"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"dram.row_hit_ratio", "ratio"},
		{"tlb.host_ns_per_lookup", "ns"},
		{"tlb.hit_ratio", "ratio"},
		{"tlb.misses", "count"},
		{"core.cow_page_copies", "count"},
		{"core.overlaying_writes", "count"},
		{"omt.cache_hit_ratio", "ratio"},
		{"oms.segment_allocs", "count"},
		{"sparse.suite_ms", "ms"},
		{"exp.fork.warmup_ms", "ms"},
		{"exp.fork.snapshot_ms", "ms"},
		{"exp.fork.resume_ms", "ms"},
		{"exp.fork.measure_ms", "ms"},
		{"sim.snapshot.forks", "count"},
		{"runtime.bg_ms", "ms"},
		{"runtime.alloc_mb_per_op", "MiB"},
		{"runtime.gc_cpu_fraction", "ratio"},
		{"runtime.heap_kb_per_request", "KiB"},
		{"server.queue_wait_ms", "ms"},
		{"server.run_ms", "ms"},
		{"server.encode_ms", "ms"},
		{"server.lru_hit_ratio", "ratio"},
		{"server.jobs_retained", "count"},
		{"server.hit_p50_ms", "ms"},
		{"server.hit_p90_ms", "ms"},
		{"cluster.job_ms", "ms"},
		{"cluster.forward_ms", "ms"},
		{"cluster.store_get_ms", "ms"},
		{"cluster.store_put_ms", "ms"},
		{"cluster.store_hit_ratio", "ratio"},
		{"cluster.forward_retries", "count"},
		{"cluster.jobs_retained", "count"},
		{"cluster.store_p50_ms", "ms"},
		{"cluster.store_p90_ms", "ms"},
		{"cluster.miss_p50_ms", "ms"},
		{"cluster.miss_p90_ms", "ms"},
		{"bench.trace_overhead_pct", "%"},
	}...)
}()

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values collects metric values by name before they are reported.
type values map[string]metric

func (m values) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v}
}

// only returns exactly the listed metrics with their units, 0 for any
// the run did not set.
func (m values) only(defs []metricDef) values {
	out := make(values, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: m[d.name].Value, Unit: d.unit}
	}
	return out
}

// runtimeSample is the Go runtime state at one instant.
type runtimeSample struct {
	totalAlloc, heapAlloc uint64  // bytes; heapAlloc after a forced GC
	gcCPU, totalCPU       float64 // cumulative CPU seconds
}

func readRuntime() runtimeSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	r := runtimeSample{totalAlloc: ms.TotalAlloc, heapAlloc: ms.HeapAlloc}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.totalCPU = s[1].Value.Float64()
	}
	return r
}

// fillLayers derives the per-layer values every workload shares from a
// traced phase: profile self time, work counts and ratios from the
// sim counters, span times, HTTP latencies and runtime deltas. Times
// and counts are per op (per request on cluster; per counted op for
// the sim counters).
func fillLayers(m values, t *tally, spans []obs.Span, layers map[string]time.Duration, rt0, rt1 runtimeSample) {
	ops := float64(t.ok())
	perOp := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / ops }
	for _, l := range selfLayers {
		m.set(l+".self_ms", perOp(layers[l]))
	}
	m.set("runtime.bg_ms", perOp(layers[layerRuntime]))

	for _, sp := range spans {
		t.spans[sp.Name] += sp.Dur
	}
	m.set("sim.export_encode_ms", perOp(t.spans["bench.encode"]))
	for _, phase := range []string{"warmup", "snapshot", "resume", "measure"} {
		m.set("exp.fork."+phase+"_ms", perOp(t.spans["fork."+phase]))
	}

	c := t.counters
	n := float64(t.counted)
	count := func(names ...string) float64 {
		var sum uint64
		for _, name := range names {
			sum += c[name]
		}
		return float64(sum) / n
	}
	ratio := func(hit string, all ...string) float64 {
		return count(hit) / count(all...)
	}
	// selfNS is a layer's self time per counted unit of its work.
	selfNS := func(layer string, work float64) float64 {
		return float64(layers[layer]) / ops / work
	}
	instr := count("cpu.instructions")
	accesses := count("cache.l1.hits", "cache.l1.misses")
	requests := count("dram.reads", "dram.writes")
	lookups := count("tlb.l1_hits", "tlb.l2_hits", "tlb.misses")
	m.set("cpu.instructions", instr)
	m.set("sim.host_ns_per_instruction", selfNS("sim", instr))
	m.set("cache.host_ns_per_access", selfNS("cache", accesses))
	m.set("cache.l1.hit_ratio", ratio("cache.l1.hits", "cache.l1.hits", "cache.l1.misses"))
	m.set("dram.host_ns_per_request", selfNS("dram", requests))
	m.set("dram.row_hit_ratio", ratio("dram.row_hits", "dram.row_hits", "dram.row_conflicts", "dram.row_closed"))
	m.set("tlb.host_ns_per_lookup", selfNS("tlb", lookups))
	m.set("tlb.hit_ratio", count("tlb.l1_hits", "tlb.l2_hits")/lookups)
	m.set("omt.cache_hit_ratio", ratio("omt.cache_hits", "omt.cache_hits", "omt.cache_misses"))
	for _, name := range []string{"cache.l3.misses", "prefetch.issued", "dram.reads", "dram.writes",
		"tlb.misses", "core.cow_page_copies", "core.overlaying_writes", "oms.segment_allocs",
		"sim.snapshot.forks"} {
		m.set(name, count(name))
	}

	// Per-path request latencies from the benchmark's HTTP spans.
	byPath := map[string][]time.Duration{}
	for _, sp := range spans {
		if p, ok := strings.CutPrefix(sp.Name, "http."); ok {
			byPath[p] = append(byPath[p], sp.Dur)
		}
	}
	for _, p := range []struct{ path, prefix string }{
		{pathHit, "server.hit"}, {pathStore, "cluster.store"}, {pathMiss, "cluster.miss"},
	} {
		l := millis(byPath[p.path])
		m.set(p.prefix+"_p50_ms", median(l))
		p90, _ := tailPercentile(l, 90)
		m.set(p.prefix+"_p90_ms", p90)
	}

	m.set("runtime.alloc_mb_per_op", float64(rt1.totalAlloc-rt0.totalAlloc)/(1<<20)/ops)
	m.set("runtime.gc_cpu_fraction", (rt1.gcCPU-rt0.gcCPU)/(rt1.totalCPU-rt0.totalCPU))
	m.set("runtime.heap_kb_per_request", (float64(rt1.heapAlloc)-float64(rt0.heapAlloc))/1024/ops)
}
