package exp

// This file implements `overlaysim bench`: a fixed matrix of job specs
// over all seven experiments, each run through JobSpec.Run as the CLI,
// serve and perfbench run them. It doubles as (a) the parallel-harness
// verification — every case runs once sequentially and once at the
// requested worker count, and the simulated metrics must match bit for
// bit — and (b) the CI regression gate: the report is written as a
// schema-versioned export, checked in as BENCH_harness.json, and
// CheckBench fails the build when simulated cycles drift (the
// simulator is deterministic, so the comparison is exact) or the wall
// clock regresses beyond the tolerance.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/sim"
)

// BenchPlan sizes the bench matrix; the bench export records it as its
// config block.
type BenchPlan struct {
	ForkNames        []string   `json:"fork_names"`
	ForkParams       ForkParams `json:"fork_params"`
	SpMVMatrices     int        `json:"spmv_matrices"`
	LineSizeMatrices int        `json:"linesize_matrices"`
	SweepPoints      int        `json:"sweep_points"`
	SweepRows        int        `json:"sweep_rows"`
}

// ShortBenchPlan is the matrix `overlaysim bench` runs: one fork
// benchmark per workload type, a small SpMV subsample, and the sparsity
// sweep at reduced dimension.
func ShortBenchPlan() BenchPlan {
	return BenchPlan{
		ForkNames:        []string{"hmmer", "lbm", "mcf"},
		ForkParams:       QuickForkParams(),
		SpMVMatrices:     6,
		LineSizeMatrices: 10,
		SweepPoints:      8,
		SweepRows:        128,
	}
}

// BenchExperiment is one experiment's row in the bench report.
type BenchExperiment struct {
	Name      string            `json:"name"`
	SeqWallMS float64           `json:"seq_wall_ms"` // harness at Parallel 1
	ParWallMS float64           `json:"par_wall_ms"` // harness at report Parallel
	Metrics   map[string]uint64 `json:"metrics"`     // simulated, machine-independent

	// Snapshot records the experiment's warm-state reuse (from the
	// parallel phase; the sequential phase reuses identically). Absent
	// for experiments with no snapshot path. Like the wall-clock
	// fields, the warmup_ms_saved component is host-dependent.
	Snapshot *SnapshotProvenance `json:"snapshot,omitempty"`
}

// BenchReport is the machine-readable bench baseline. Metrics are
// purely simulated quantities (cycles, bytes, counter deltas) and so
// compare exactly across machines; the wall-clock fields are
// host-dependent and only compared against baselines recorded on
// comparable hardware.
type BenchReport struct {
	Parallel    int                `json:"parallel"`
	SeqWallMS   float64            `json:"seq_wall_ms"`
	ParWallMS   float64            `json:"par_wall_ms"`
	Snapshot    SnapshotProvenance `json:"snapshot"` // summed across experiments
	Experiments []BenchExperiment  `json:"experiments"`
}

// benchCase is one experiment of the matrix: the job specs it runs, and
// metrics, which reads the deterministic metrics from one spec's typed
// export results into m.
type benchCase struct {
	name    string
	specs   []JobSpec
	metrics func(m map[string]uint64, results any)
}

func (p BenchPlan) cases() []benchCase {
	forks := make([]JobSpec, len(p.ForkNames))
	for i, b := range p.ForkNames {
		forks[i] = JobSpec{Experiment: "fork", Bench: b,
			Warm: p.ForkParams.WarmInstructions, Measure: p.ForkParams.MeasureInstructions}
	}
	return []benchCase{
		{"fork", forks, func(m map[string]uint64, results any) {
			for _, r := range results.([]ForkResult) {
				m[r.Benchmark+".cow.cycles"] = r.CoW.Cycles
				m[r.Benchmark+".oow.cycles"] = r.OoW.Cycles
				m[r.Benchmark+".cow.added_bytes"] = uint64(r.CoW.AddedBytes)
				m[r.Benchmark+".oow.added_bytes"] = uint64(r.OoW.AddedBytes)
			}
		}},
		{"spmv", []JobSpec{{Experiment: "spmv", Matrices: p.SpMVMatrices}}, func(m map[string]uint64, results any) {
			for _, r := range results.([]SpMVResult) {
				m[r.Matrix+".overlay.cycles"] = r.OverlayCycles
				m[r.Matrix+".csr.cycles"] = r.CSRCycles
			}
		}},
		{"linesize", []JobSpec{{Experiment: "linesize", Matrices: p.LineSizeMatrices}}, func(m map[string]uint64, results any) {
			// Analytic overheads are float ratios; scale to milli-units
			// so the export stays integral. Same inputs → same floats →
			// same rounding, so the comparison is still exact.
			for _, r := range results.([]LineSizeResult) {
				for _, sz := range LineSizes {
					m[fmt.Sprintf("%s.overhead_milli.%d", r.Matrix, sz)] = uint64(r.Overheads[sz]*1000 + 0.5)
				}
				m[r.Matrix+".csr_milli"] = uint64(r.CSR*1000 + 0.5)
			}
		}},
		{"sweep", []JobSpec{{Experiment: "sweep", Points: p.SweepPoints, Rows: p.SweepRows}}, func(m map[string]uint64, results any) {
			for i, r := range results.([]SweepResult) {
				m[fmt.Sprintf("point%02d.overlay.cycles", i)] = r.OverlayCycles
				m[fmt.Sprintf("point%02d.dense.cycles", i)] = r.DenseCycles
			}
		}},
		{"compare", []JobSpec{{Experiment: "compare", Bench: p.ForkNames[0], Warm: p.ForkParams.WarmInstructions,
			Measure: p.ForkParams.MeasureInstructions, Matrices: 2}}, func(m map[string]uint64, results any) {
			for _, b := range results.(*CompareReport).Backends {
				m[b.Backend+".fork.cycles"] = b.Fork.Cycles
				m[b.Backend+".fork.added_bytes"] = uint64(b.Fork.AddedBytes)
				m[b.Backend+".spmv.csr_cycles"] = b.SpMV.CSRCycles
				m[b.Backend+".metadata_bytes"] = uint64(b.MetadataBytes)
				if b.SpMV.OverlayCycles != 0 {
					m[b.Backend+".spmv.overlay_cycles"] = b.SpMV.OverlayCycles
				}
			}
		}},
		// 96 segments per tenant against a 16-frame budget keep the
		// cooling queue and spill tier under steady pressure without
		// dominating the matrix's wall clock.
		{"omsstress", []JobSpec{{Experiment: "omsstress", Tenants: 4, Ops: 8000, Segments: 96, OMSCapacity: 16}}, func(m map[string]uint64, results any) {
			for _, r := range results.([]OMSStressResult) {
				key := fmt.Sprintf("tenant%d", r.Tenant)
				m[key+".evictions"] = r.Evictions
				m[key+".spills"] = r.Spills
				m[key+".refills"] = r.Refills
				m[key+".spill_penalty_cycles"] = r.PenaltyCycles
				m[key+".resident_bytes"] = uint64(r.ResidentBytes)
				m[key+".spilled_bytes"] = uint64(r.SpilledBytes)
			}
		}},
		{"dualcore", []JobSpec{{Experiment: "dualcore"}}, func(m map[string]uint64, results any) {
			for _, r := range results.([]DualCoreResult) {
				m[r.Mechanism+".writer.cycles"] = uint64(r.WriterCycles)
				m[r.Mechanism+".reader.cycles"] = uint64(r.ReaderCycles)
				m[r.Mechanism+".shootdowns"] = r.Shootdowns
				m[r.Mechanism+".line_updates"] = r.LineUpdates
			}
		}},
	}
}

// run executes the case's specs in turn on the pool and gathers their
// metrics into one map.
func (c benchCase) run(ctx context.Context, pool Pool) (map[string]uint64, error) {
	m := make(map[string]uint64)
	for _, s := range c.specs {
		out, err := s.Run(ctx, pool)
		if err != nil {
			return nil, err
		}
		c.metrics(m, out.Export.Results)
	}
	return m, nil
}

// RunBench runs every case twice — once at Parallel 1 and once at the
// requested worker count — verifies the simulated metrics are
// bit-identical between the two, and reports per-experiment and total
// wall clock.
func RunBench(ctx context.Context, plan BenchPlan, parallel int, progress io.Writer) (*BenchReport, error) {
	report := &BenchReport{Parallel: parallel}
	for _, c := range plan.cases() {
		seqStart := time.Now()
		seq, err := c.run(ctx, Pool{Parallel: 1, Progress: progress})
		if err != nil {
			return nil, fmt.Errorf("bench %s (sequential): %w", c.name, err)
		}
		seqWall := time.Since(seqStart)

		parSnap := &SnapshotStats{}
		parStart := time.Now()
		par, err := c.run(ctx, Pool{Parallel: parallel, Progress: progress, Snap: parSnap})
		if err != nil {
			return nil, fmt.Errorf("bench %s (parallel %d): %w", c.name, parallel, err)
		}
		parWall := time.Since(parStart)

		if diffs := diffMetrics(seq, par); len(diffs) > 0 {
			return nil, fmt.Errorf("bench %s: parallel %d diverges from the sequential path (simulator nondeterminism): %s",
				c.name, parallel, diffs[0])
		}
		e := BenchExperiment{
			Name:      c.name,
			SeqWallMS: float64(seqWall.Microseconds()) / 1000,
			ParWallMS: float64(parWall.Microseconds()) / 1000,
			Metrics:   seq,
		}
		if prov := parSnap.Provenance(); !prov.Empty() {
			e.Snapshot = &prov
			report.Snapshot.accumulate(prov)
		}
		report.Experiments = append(report.Experiments, e)
		report.SeqWallMS += e.SeqWallMS
		report.ParWallMS += e.ParWallMS
	}
	return report, nil
}

// LoadBenchBaseline parses a recorded bench export (the Results field
// of the schema-versioned JSON `overlaysim bench -json` writes).
func LoadBenchBaseline(r io.Reader) (*BenchReport, error) {
	var doc struct {
		SchemaVersion int         `json:"schema_version"`
		Command       string      `json:"command"`
		Results       BenchReport `json:"results"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("bench baseline: %w", err)
	}
	if doc.SchemaVersion != sim.SchemaVersion {
		return nil, fmt.Errorf("bench baseline: schema version %d, want %d", doc.SchemaVersion, sim.SchemaVersion)
	}
	if doc.Command != "bench" {
		return nil, fmt.Errorf("bench baseline: export is for command %q, want \"bench\"", doc.Command)
	}
	if len(doc.Results.Experiments) == 0 {
		return nil, fmt.Errorf("bench baseline: no experiments recorded")
	}
	return &doc.Results, nil
}

// diffMetrics describes every key whose value differs (or exists on
// only one side), in sorted key order.
func diffMetrics(want, got map[string]uint64) []string {
	keys := make(map[string]bool, len(want)+len(got))
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	var diffs []string
	for _, k := range sorted {
		w, wok := want[k]
		g, gok := got[k]
		switch {
		case !wok:
			diffs = append(diffs, fmt.Sprintf("%s: unexpected metric (got %d)", k, g))
		case !gok:
			diffs = append(diffs, fmt.Sprintf("%s: missing metric (want %d)", k, w))
		case w != g:
			diffs = append(diffs, fmt.Sprintf("%s: want %d, got %d", k, w, g))
		}
	}
	return diffs
}

// CheckBench compares a fresh report against the recorded baseline:
// simulated metrics must match exactly (per experiment, per key), and
// when wallTol > 0 the total parallel wall clock may not exceed the
// baseline by more than that fraction (0.25 = +25 %). Wall clock is
// host-dependent, so pass wallTol 0 when comparing across machines.
func CheckBench(baseline, got *BenchReport, wallTol float64) error {
	if baseline.Parallel != got.Parallel {
		return fmt.Errorf("bench: baseline recorded at -parallel %d, this run used -parallel %d",
			baseline.Parallel, got.Parallel)
	}
	base := make(map[string]BenchExperiment, len(baseline.Experiments))
	for _, e := range baseline.Experiments {
		base[e.Name] = e
	}
	seen := make(map[string]bool, len(got.Experiments))
	for _, e := range got.Experiments {
		seen[e.Name] = true
		b, ok := base[e.Name]
		if !ok {
			return fmt.Errorf("bench: experiment %q not in baseline", e.Name)
		}
		if diffs := diffMetrics(b.Metrics, e.Metrics); len(diffs) > 0 {
			limit := diffs
			if len(limit) > 5 {
				limit = limit[:5]
			}
			return fmt.Errorf("bench: %s simulated metrics drifted from baseline (%d keys):\n  %s",
				e.Name, len(diffs), strings.Join(limit, "\n  "))
		}
	}
	for name := range base {
		if !seen[name] {
			return fmt.Errorf("bench: baseline experiment %q missing from this run", name)
		}
	}
	if wallTol > 0 && got.ParWallMS > baseline.ParWallMS*(1+wallTol) {
		return fmt.Errorf("bench: wall clock regressed: %.0f ms vs baseline %.0f ms (tolerance +%.0f%%)",
			got.ParWallMS, baseline.ParWallMS, wallTol*100)
	}
	return nil
}

// PrintBench renders the human-readable bench summary.
func PrintBench(w io.Writer, r *BenchReport) {
	fmt.Fprintf(w, "Bench matrix at -parallel %d (simulated metrics verified bit-identical vs -parallel 1)\n", r.Parallel)
	fmt.Fprintf(w, "%-10s %12s %12s %9s\n", "experiment", "seq wall", "par wall", "metrics")
	for _, e := range r.Experiments {
		fmt.Fprintf(w, "%-10s %10.0fms %10.0fms %9d\n", e.Name, e.SeqWallMS, e.ParWallMS, len(e.Metrics))
	}
	fmt.Fprintf(w, "%-10s %10.0fms %10.0fms\n", "total", r.SeqWallMS, r.ParWallMS)
	if s := r.Snapshot; s.Forks > 0 {
		fmt.Fprintf(w, "warm-state reuse: %d families, %d forks, %d warm-ups skipped, ~%.0f ms warm-up saved\n",
			s.Families, s.Forks, s.WarmupsReused, s.WarmupMSSaved)
	}
}
