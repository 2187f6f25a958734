package main

// The fork and spmv workloads: experiment jobs run one at a time, at
// Parallel 1 and with no cross-job snapshot cache, as a researcher
// running experiments back to back pays for them. An op is one
// exp.JobSpec.Run plus the sim.Export.WriteJSON that renders its
// result — the bytes a -json run or a served job produces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// harnessPath is the recorded matrix the default-seed outputs must
// match, relative to the repository root the benchmark runs from.
const harnessPath = "BENCH_harness.json"

type simWorkload struct {
	experiment string
	harness    string // path of the recorded matrix the outputs must match
	rotation   []exp.JobSpec
	refs       [][]byte            // each rotation slot's export bytes, from setup
	cycles     []uint64            // simulated cycles in each slot's result
	counters   []map[string]uint64 // each slot's export counters
	buf        bytes.Buffer
}

func newSimWorkload(experiment string, rotation []exp.JobSpec) *simWorkload {
	return &simWorkload{experiment: experiment, harness: harnessPath, rotation: rotation,
		refs: make([][]byte, len(rotation))}
}

// setup runs one untimed rotation, which produces the reference
// outputs. A repeated set-up must reproduce them byte for byte.
func (w *simWorkload) setup(ctx context.Context) error {
	for i, spec := range w.rotation {
		b, err := w.op(ctx, spec, nil)
		if err != nil {
			return fmt.Errorf("setup %s: %w", spec.CLIArgs(), err)
		}
		if w.refs[i] != nil && !bytes.Equal(b, w.refs[i]) {
			return fmt.Errorf("setup %s: output differs from the previous set-up", spec.CLIArgs())
		}
		w.refs[i] = bytes.Clone(b)
	}
	if w.cycles != nil {
		return nil
	}
	harness := map[string]uint64{}
	for _, ref := range w.refs {
		f, err := readExport(w.experiment, ref)
		if err != nil {
			return err
		}
		w.cycles = append(w.cycles, f.cycles)
		w.counters = append(w.counters, f.counters)
		for k, v := range f.harness {
			harness[k] = v
		}
	}
	return checkHarness(w.harness, w.experiment, harness)
}

// op runs one job and renders its export into w.buf.
func (w *simWorkload) op(ctx context.Context, spec exp.JobSpec, tr *obs.Tracer) ([]byte, error) {
	root := tr.StartSpan(obs.SpanContext{}, "bench.op")
	defer root.End()
	runCtx, run := obs.StartSpan(obs.ContextWithSpan(obs.NewContext(ctx, tr), root), "bench.run")
	out, err := spec.Run(runCtx, exp.Pool{Parallel: 1})
	run.End()
	if err != nil {
		return nil, err
	}
	enc := tr.StartSpan(root.Context(), "bench.encode")
	defer enc.End()
	w.buf.Reset()
	if err := out.Export.WriteJSON(&w.buf); err != nil {
		return nil, err
	}
	return w.buf.Bytes(), nil
}

// phase runs complete rotations until d has passed, so every run has
// the same mix of ops.
func (w *simWorkload) phase(ctx context.Context, d time.Duration, tr *obs.Tracer) (*tally, error) {
	t := newTally()
	start := time.Now()
	for time.Since(start) < d {
		for i, spec := range w.rotation {
			t0 := time.Now()
			b, err := w.op(ctx, spec, tr)
			lat := time.Since(t0)
			t.attempted++
			switch {
			case err != nil:
				t.fail("%s: %v", spec.CLIArgs(), err)
			case !bytes.Equal(b, w.refs[i]):
				t.fail("%s: output differs from the set-up reference", spec.CLIArgs())
			default:
				t.lat["op"] = append(t.lat["op"], lat)
				t.cycles += w.cycles[i]
				for k, v := range w.counters[i] {
					t.counters[k] += v
				}
				t.counted++
			}
		}
	}
	t.elapsed = time.Since(start)
	return t, nil
}

// layers times the suite build a spmv job repeats: three direct
// sparse.BuildSuite calls, median reported.
func (w *simWorkload) layers(ctx context.Context, t *tally, m values) error {
	if w.experiment != "spmv" {
		return nil
	}
	var ms []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if len(sparse.BuildSuite()) == 0 {
			return fmt.Errorf("sparse.BuildSuite returned no matrices")
		}
		ms = append(ms, float64(time.Since(t0))/float64(time.Millisecond))
	}
	m.set("sparse.suite_ms", median(ms))
	return nil
}

func (w *simWorkload) teardown() error { return nil }

// exportFacts is what the benchmark reads from one export: simulated
// cycles, the figures BENCH_harness.json records for the experiment,
// and the sim counters.
type exportFacts struct {
	cycles   uint64
	harness  map[string]uint64
	counters map[string]uint64
}

// readExport parses an export of the given experiment. It must be a
// schema-v1 document of that command.
func readExport(experiment string, b []byte) (exportFacts, error) {
	var doc struct {
		SchemaVersion int               `json:"schema_version"`
		Command       string            `json:"command"`
		Counters      map[string]uint64 `json:"counters"`
		Results       json.RawMessage   `json:"results"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return exportFacts{}, fmt.Errorf("export: %w", err)
	}
	if doc.SchemaVersion != 1 || doc.Command != experiment {
		return exportFacts{}, fmt.Errorf("export: schema %d command %q, want schema 1 command %q",
			doc.SchemaVersion, doc.Command, experiment)
	}
	f := exportFacts{harness: map[string]uint64{}, counters: doc.Counters}
	switch experiment {
	case "fork":
		type mech struct{ Cycles, AddedBytes uint64 }
		var rs []struct {
			Benchmark string
			CoW, OoW  mech
		}
		if err := json.Unmarshal(doc.Results, &rs); err != nil {
			return exportFacts{}, fmt.Errorf("fork results: %w", err)
		}
		for _, r := range rs {
			f.cycles += r.CoW.Cycles + r.OoW.Cycles
			f.harness[r.Benchmark+".cow.cycles"] = r.CoW.Cycles
			f.harness[r.Benchmark+".cow.added_bytes"] = r.CoW.AddedBytes
			f.harness[r.Benchmark+".oow.cycles"] = r.OoW.Cycles
			f.harness[r.Benchmark+".oow.added_bytes"] = r.OoW.AddedBytes
		}
	case "spmv":
		var rs []struct {
			Matrix                   string
			OverlayCycles, CSRCycles uint64
		}
		if err := json.Unmarshal(doc.Results, &rs); err != nil {
			return exportFacts{}, fmt.Errorf("spmv results: %w", err)
		}
		for _, r := range rs {
			f.cycles += r.OverlayCycles + r.CSRCycles
			f.harness[r.Matrix+".overlay.cycles"] = r.OverlayCycles
			f.harness[r.Matrix+".csr.cycles"] = r.CSRCycles
		}
	}
	return f, nil
}

// checkHarness compares the outputs' figures with BENCH_harness.json:
// every recorded metric of the experiment for a benchmark or matrix
// the outputs cover must be equal. The default seed covers them all.
func checkHarness(path, experiment string, got map[string]uint64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading the recorded matrix: %w", err)
	}
	var doc struct {
		Results struct {
			Experiments []struct {
				Name    string            `json:"name"`
				Metrics map[string]uint64 `json:"metrics"`
			} `json:"experiments"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	covered := map[string]bool{}
	for k := range got {
		name, _, _ := strings.Cut(k, ".")
		covered[name] = true
	}
	checked := 0
	for _, e := range doc.Results.Experiments {
		if e.Name != experiment {
			continue
		}
		for k, want := range e.Metrics {
			name, _, _ := strings.Cut(k, ".")
			if !covered[name] {
				continue
			}
			if got[k] != want {
				return fmt.Errorf("%s: %s = %d, %s records %d", experiment, k, got[k], path, want)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("%s: no metric in %s covers these outputs", experiment, path)
	}
	return nil
}
