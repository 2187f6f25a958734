package exp

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/export_digests.txt")

// digestProbes are short specs of every registry experiment: fork under
// each backend and over all 15 benchmarks, both spmv modes, linesize,
// sweep, compare, omsstress with and without its spill tier, and
// dualcore.
func digestProbes() []JobSpec {
	var probes []JobSpec
	for _, b := range core.Backends() {
		probes = append(probes, JobSpec{Experiment: "fork", Bench: "hmmer", Warm: 20_000, Measure: 50_000, Backend: b})
	}
	return append(probes,
		JobSpec{Experiment: "fork", Warm: 2_000, Measure: 4_000},
		JobSpec{Experiment: "spmv", Matrices: 6},
		JobSpec{Experiment: "spmv", Matrices: 1, Dense: true},
		JobSpec{Experiment: "linesize", Matrices: 10},
		JobSpec{Experiment: "sweep", Points: 3, Rows: 64},
		JobSpec{Experiment: "compare", Bench: "hmmer", Warm: 20_000, Measure: 40_000, Matrices: 1},
		JobSpec{Experiment: "omsstress", Tenants: 2, Ops: 4_000, Segments: 48, OMSCapacity: 4},
		JobSpec{Experiment: "omsstress", Tenants: 2, Ops: 4_000, Segments: 48, OMSCapacity: -1, NoSpill: true},
		JobSpec{Experiment: "dualcore"},
	)
}

// exportDigests renders one line per probe output: the SHA-256 of the
// -json export the CLI would write, of its text report, or of the
// simulator records its -tracelog would hold, then the output's kind and
// the probe's invocation.
func exportDigests(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("# SHA-256 of each probe's -json export and text report (TestExportDigests).\n" +
		"# Rewrite only for an intended change: go test ./internal/exp -run TestExportDigests -update\n")
	add := func(name string, ex *sim.Export, report string) {
		var js bytes.Buffer
		if err := ex.WriteJSON(&js); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%x json   %s\n", sha256.Sum256(js.Bytes()), name)
		fmt.Fprintf(&b, "%x report %s\n", sha256.Sum256([]byte(report)), name)
	}
	addTrace := func(name string, tl *sim.TraceLog) {
		if tl.Dropped() > 0 {
			t.Fatalf("%s: %d of %d trace events fell off the ring", name, tl.Dropped(), tl.Total())
		}
		records, err := tl.ChromeRecords()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, r := range records {
			h.Write(r)
			h.Write([]byte{'\n'})
		}
		fmt.Fprintf(&b, "%x trace  %s\n", h.Sum(nil), name)
	}
	ctx := context.Background()
	for _, s := range digestProbes() {
		s.Parallel = 1 // the CLI's default, so the name carries no -parallel
		name := strings.Join(s.CLIArgs(), " ")
		out, err := s.Run(ctx, Pool{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var report strings.Builder
		lookup(s.Experiment).Report(&report, s.Normalized(), out.Export)
		add(name, out.Export, report.String())
	}
	// stats is no registry experiment: run it as its subcommand does.
	spec, err := workload.ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	for _, be := range core.Backends() {
		cfg := ForkConfig(spec, ForkBackend(be))
		params := ForkParams{
			WarmInstructions:    QuickForkParams().WarmInstructions,
			MeasureInstructions: 30_000,
			Backend:             cfg.Backend,
			SeriesEpoch:         sim.DefaultEpoch,
		}
		text, ex, err := RunStatsExport(ctx, spec, cfg, params, true)
		if err != nil {
			t.Fatalf("stats %s: %v", be, err)
		}
		add("stats -bench=hmmer -measure=30000 -backend="+be, ex, text)
	}
	// The simulator records of a fork suite and of a stats run. Every
	// record needs an overlay, so each run's records all fall after its
	// fork; both logs stay under the ring's capacity.
	fork := JobSpec{Experiment: "fork", Bench: "mcf", Warm: 20_000, Measure: 50_000, Parallel: 1}
	tl := sim.NewTraceLog(0)
	if _, err := fork.Run(ctx, Pool{Trace: tl}); err != nil {
		t.Fatalf("fork trace: %v", err)
	}
	addTrace(strings.Join(fork.CLIArgs(), " "), tl)
	tl = sim.NewTraceLog(0)
	params := ForkParams{
		WarmInstructions:    QuickForkParams().WarmInstructions,
		MeasureInstructions: 30_000,
		SeriesEpoch:         sim.DefaultEpoch,
		Trace:               tl,
	}
	if _, _, err := RunStatsExport(ctx, spec, ForkConfig(spec, ""), params, true); err != nil {
		t.Fatalf("stats trace: %v", err)
	}
	addTrace("stats -bench=hmmer -measure=30000", tl)
	return b.Bytes()
}

// TestExportDigests pins every simulated number the probes export, and
// every line they print, to testdata/export_digests.txt: a one-cycle
// change anywhere in the timing model changes some export's digest.
func TestExportDigests(t *testing.T) {
	path := filepath.Join("testdata", "export_digests.txt")
	got := exportDigests(t)
	if *updateDigests {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	recorded := make(map[string]bool)
	for _, line := range strings.Split(string(want), "\n") {
		recorded[line] = true
	}
	for _, line := range strings.Split(string(got), "\n") {
		if !recorded[line] {
			t.Errorf("digest changed: %s", line)
		}
	}
	t.Errorf("exports differ from %s; rewrite it with -update only for an intended change", path)
}
