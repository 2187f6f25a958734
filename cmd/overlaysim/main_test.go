package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/cpu"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestForkJSONRoundTrip runs a quick fork experiment through the CLI and
// validates the machine-readable export end to end: schema version, the
// required latency histograms with samples, at least one epoch series,
// and a trace file in Chrome trace_event shape.
func TestForkJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "out.json")
	tracePath := filepath.Join(dir, "out.trace.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"fork", "-bench=hmmer", "-warm=20000", "-measure=50000",
		"-epoch=50000", "-json=" + jsonPath, "-tracelog=" + tracePath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("fork exited %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "hmmer") {
		t.Errorf("stdout missing benchmark name:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		SchemaVersion int    `json:"schema_version"`
		Command       string `json:"command"`
		Counters      map[string]uint64
		Histograms    map[string]struct {
			Count uint64  `json:"count"`
			Mean  float64 `json:"mean"`
			P95   float64 `json:"p95"`
		} `json:"histograms"`
		Series []struct {
			Name string `json:"name"`
			Rows []struct {
				EndCycle uint64   `json:"end_cycle"`
				Values   []uint64 `json:"values"`
			} `json:"rows"`
		} `json:"series"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if ex.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1", ex.SchemaVersion)
	}
	if ex.Command != "fork" {
		t.Errorf("command = %q, want fork", ex.Command)
	}
	for _, name := range []string{"core.access_cycles", "dram.read_cycles", "tlb.walk_cycles"} {
		h, ok := ex.Histograms[name]
		if !ok {
			t.Errorf("export missing histogram %q", name)
			continue
		}
		if h.Count == 0 {
			t.Errorf("histogram %q has zero samples", name)
		}
		if h.Mean <= 0 || h.P95 < h.Mean/2 {
			t.Errorf("histogram %q has implausible mean %v / p95 %v", name, h.Mean, h.P95)
		}
	}
	if len(ex.Series) < 1 {
		t.Fatalf("export has no series")
	}
	rows := 0
	for _, s := range ex.Series {
		rows += len(s.Rows)
	}
	if rows == 0 {
		t.Errorf("series contain no rows")
	}

	// Round trip: re-marshal and re-parse the export.
	again, err := json.Marshal(ex)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if err := json.Unmarshal(again, &ex); err != nil {
		t.Fatalf("round trip: %v", err)
	}

	// The trace file must be Chrome trace_event JSON with events.
	traw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traw, &tr); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

// TestExitCodes audits the exit-code conventions across every
// subcommand: usage errors (bad flags, invalid flag values, conflicting
// flags) exit 2, runtime errors (valid invocation, failing work) exit 1.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		// Usage errors → 2.
		{"no args", nil, 2},
		{"unknown command", []string{"bogus"}, 2},
		{"fork bad flag", []string{"fork", "-nope"}, 2},
		{"fork negative parallel", []string{"fork", "-parallel=-1", "-bench=hmmer"}, 2},
		{"spmv bad flag", []string{"spmv", "-nope"}, 2},
		{"spmv negative matrices", []string{"spmv", "-matrices=-1"}, 2},
		{"spmv negative parallel", []string{"spmv", "-parallel=-2", "-matrices=1"}, 2},
		{"linesize negative matrices", []string{"linesize", "-matrices=-5"}, 2},
		{"sweep one point", []string{"sweep", "-points=1"}, 2},
		{"sweep tiny rows", []string{"sweep", "-rows=4"}, 2},
		// A typed 0 is checked as given, not read as the default.
		{"fork zero warm", []string{"fork", "-warm=0", "-bench=hmmer"}, 2},
		{"fork zero measure", []string{"fork", "-measure=0", "-bench=hmmer"}, 2},
		{"sweep zero points", []string{"sweep", "-points=0"}, 2},
		{"sweep zero rows", []string{"sweep", "-rows=0"}, 2},
		{"omsstress zero tenants", []string{"omsstress", "-tenants=0"}, 2},
		{"omsstress zero ops", []string{"omsstress", "-ops=0"}, 2},
		{"omsstress zero segments", []string{"omsstress", "-segments=0"}, 2},
		{"dualcore bad flag", []string{"dualcore", "-nope"}, 2},
		{"dualcore negative parallel", []string{"dualcore", "-parallel=-1"}, 2},
		{"bench bad flag", []string{"bench", "-nope"}, 2},
		{"bench negative parallel", []string{"bench", "-parallel=-4"}, 2},
		{"bench negative tolerance", []string{"bench", "-wall-tolerance=-0.5"}, 2},
		{"trace without -out/-in", []string{"trace"}, 2},
		{"trace with both -out and -in", []string{"trace", "-out=a", "-in=b"}, 2},
		{"stats bad flag", []string{"stats", "-nope"}, 2},
		{"config bad flag", []string{"config", "-nope"}, 2},

		// -backend is validated against the registered-backend list at
		// flag-parse time, before any simulation.
		{"fork unknown backend", []string{"fork", "-backend=nope", "-bench=hmmer"}, 2},
		{"stats unknown backend", []string{"stats", "-backend=nope"}, 2},
		{"compare unknown backend", []string{"compare", "-backend=nope"}, 2},
		{"compare bad flag", []string{"compare", "-nope"}, 2},
		{"compare negative matrices", []string{"compare", "-matrices=-1"}, 2},
		{"compare negative parallel", []string{"compare", "-parallel=-1"}, 2},
		{"compare unwritable json", []string{"compare", "-warm=1000000000000", "-json=/nonexistent/dir/out.json"}, 2},
		{"config bad cpuprofile path", []string{"config", "-cpuprofile=/nonexistent/dir/cpu.pprof"}, 2},
		{"config bad memprofile path", []string{"config", "-memprofile=/nonexistent/dir/mem.pprof"}, 2},
		{"trace bad cpuprofile path", []string{"trace", "-cpuprofile=/nonexistent/dir/cpu.pprof"}, 2},

		// Unwritable output paths fail fast, before any simulation: the
		// huge instruction counts would hang the test if the experiment
		// ran first.
		{"fork unwritable json", []string{"fork", "-warm=1000000000000", "-measure=1000000000000", "-json=/nonexistent/dir/out.json"}, 2},
		{"sweep unwritable csv", []string{"sweep", "-points=1000", "-rows=65536", "-csv=/nonexistent/dir/out.csv"}, 2},
		{"dualcore unwritable tracelog", []string{"dualcore", "-tracelog=/nonexistent/dir/out.trace"}, 2},
		{"stats unwritable json", []string{"stats", "-measure=1000000000000", "-json=/nonexistent/dir/out.json"}, 2},
		{"bench unwritable json", []string{"bench", "-json=/nonexistent/dir/bench.json"}, 2},

		// serve validates its flags before binding the listener.
		{"serve bad flag", []string{"serve", "-nope"}, 2},
		{"serve negative workers", []string{"serve", "-workers=-1"}, 2},
		{"serve zero queue", []string{"serve", "-queue=0"}, 2},
		{"serve negative job timeout", []string{"serve", "-job-timeout=-1s"}, 2},
		{"serve zero grace", []string{"serve", "-grace=0"}, 2},
		{"serve unlistenable addr", []string{"serve", "-addr=999.999.999.999:0"}, 2},

		// Runtime errors → 1.
		{"stats unknown benchmark", []string{"stats", "-bench=notabench"}, 1},
		{"fork unknown benchmark", []string{"fork", "-bench=notabench"}, 1},
		{"compare unknown benchmark", []string{"compare", "-bench=notabench"}, 1},
		{"trace replay missing file", []string{"trace", "-in=/nonexistent/trace.bin"}, 1},
		{"trace record unwritable", []string{"trace", "-out=/nonexistent/dir/trace.bin", "-n=1"}, 1},
		{"bench missing baseline", []string{"bench", "-check=/nonexistent/baseline.json"}, 1},

		// Success → 0.
		{"config ok", []string{"config"}, 0},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != c.want {
			t.Errorf("%s: exit code %d, want %d (stderr: %s)", c.name, code, c.want, stderr.String())
		}
	}
}

// TestProfileFlags exercises -cpuprofile/-memprofile on a real
// invocation: the command must succeed and both profiles must be
// non-empty files (pprof's gzip framing makes even an idle profile a
// few hundred bytes).
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	args := []string{"config", "-cpuprofile=" + cpuPath, "-memprofile=" + memPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, want 0 (stderr: %s)", code, stderr.String())
	}
	for _, path := range []string{cpuPath, memPath} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", path)
		}
	}
}

// TestBenchCLI runs a tiny bench matrix through the CLI: the JSON
// export must be a loadable baseline, and a -check against the file it
// just wrote must pass (same machine, same run ⇒ metrics exact).
func TestBenchCLI(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	tiny := []string{
		"-short", "-parallel=2", "-benches=hmmer", "-warm=20000", "-measure=40000",
		"-matrices=2", "-points=2", "-rows=64",
	}
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"bench", "-json=" + jsonPath}, tiny...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"fork", "spmv", "linesize", "sweep", "dualcore", "total"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("bench summary missing %q:\n%s", want, stdout.String())
		}
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var ex struct {
		SchemaVersion int    `json:"schema_version"`
		Command       string `json:"command"`
		Meta          struct {
			GoVersion string `json:"go_version"`
			Parallel  int    `json:"parallel"`
		} `json:"meta"`
		Results struct {
			Parallel    int `json:"parallel"`
			Experiments []struct {
				Name    string            `json:"name"`
				Metrics map[string]uint64 `json:"metrics"`
			} `json:"experiments"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &ex); err != nil {
		t.Fatalf("bench export is not valid JSON: %v", err)
	}
	if ex.SchemaVersion != 1 || ex.Command != "bench" {
		t.Errorf("export header = %d/%q", ex.SchemaVersion, ex.Command)
	}
	if ex.Meta.GoVersion == "" || ex.Meta.Parallel != 2 || ex.Results.Parallel != 2 {
		t.Errorf("export meta incomplete: %+v", ex.Meta)
	}
	if len(ex.Results.Experiments) != 7 {
		t.Fatalf("export has %d experiments, want 7", len(ex.Results.Experiments))
	}

	// Re-running against the just-written baseline must pass the gate.
	stdout.Reset()
	stderr.Reset()
	code = run(append([]string{"bench", "-check=" + jsonPath}, tiny...), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench -check exited %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "baseline check passed") {
		t.Errorf("check did not report success:\n%s", stdout.String())
	}

	// A baseline recorded at a different worker count is rejected (exit 1).
	stdout.Reset()
	stderr.Reset()
	mismatched := append([]string{"bench", "-check=" + jsonPath, "-short", "-parallel=1"}, tiny[2:]...)
	if code = run(mismatched, &stdout, &stderr); code != 1 {
		t.Fatalf("mismatched -parallel check exited %d, want 1", code)
	}
}

func TestStatsCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "series.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"stats", "-bench=hmmer", "-measure=30000", "-epoch=50000", "-csv=" + csvPath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("stats exited %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "series,counter,end_cycle,value" {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Errorf("csv has no data rows")
	}
}

// TestSpansOutputAndMergedTrace runs a quick fork through -spans and
// -tracelog and validates both artefacts: the span JSONL carries the
// cli.fork → harness.job → fork.warmup/fork.measure hierarchy with one
// shared trace ID, and the Chrome document contains simulator instant
// events alongside pid-0 span records.
func TestSpansOutputAndMergedTrace(t *testing.T) {
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.jsonl")
	tracePath := filepath.Join(dir, "merged.trace.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"fork", "-bench=hmmer", "-warm=20000", "-measure=50000",
		"-spans=" + spansPath, "-tracelog=" + tracePath,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("fork exited %d, stderr: %s", code, stderr.String())
	}

	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	traceIDs := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var sp struct {
			TraceID string `json:"trace_id"`
			SpanID  string `json:"span_id"`
			Name    string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &sp); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		if sp.SpanID == "" {
			t.Fatalf("span line lacks span_id: %s", line)
		}
		names[sp.Name]++
		traceIDs[sp.TraceID] = true
	}
	if len(traceIDs) != 1 {
		t.Errorf("spans carry %d distinct trace IDs, want 1", len(traceIDs))
	}
	for _, want := range []string{"cli.fork", "harness.job", "fork.warmup", "fork.measure"} {
		if names[want] == 0 {
			t.Errorf("span log lacks %q spans: %v", want, names)
		}
	}
	// One benchmark, two mechanisms: a warmup+measure pair per mechanism.
	if names["fork.warmup"] != 2 || names["fork.measure"] != 2 {
		t.Errorf("phase span counts = %v, want 2 warmup + 2 measure", names)
	}

	traw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traw, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	simEvents, spanEvents := 0, 0
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "i":
			simEvents++
		case "X":
			spanEvents++
			if ev.Pid != 0 {
				t.Errorf("span record %q at pid %v, want 0", ev.Name, ev.Pid)
			}
		}
	}
	if simEvents == 0 || spanEvents == 0 {
		t.Errorf("merged trace has %d sim events + %d span events, want both > 0",
			simEvents, spanEvents)
	}
}

// TestSweepTraceLog runs an experiment without simulator trace events
// through -tracelog and -spans: the Chrome document is still written,
// holding the host-side span records at pid 0.
func TestSweepTraceLog(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "sweep.trace.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"sweep", "-points=2", "-rows=64",
		"-tracelog=" + tracePath, "-spans=" + filepath.Join(dir, "spans.jsonl"),
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("sweep exited %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid float64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file (%d bytes) is not a Chrome document: %v", len(raw), err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Pid == 0 {
			spans++
		}
	}
	if spans == 0 {
		t.Errorf("trace file has no pid-0 span records: %s", raw)
	}
}

// TestGoldenUsage pins the flag surface: the usage text overlaysim
// prints with no arguments, which lists every subcommand's flags with
// their defaults and help text. Regenerate with:
// go test ./cmd/overlaysim -run TestGolden -update
func TestGoldenUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	golden := filepath.Join("testdata", "usage.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, stderr.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with -update)", err)
	}
	if !bytes.Equal(stderr.Bytes(), want) {
		t.Errorf("usage text differs from golden file %s\ngot:\n%s", golden, stderr.Bytes())
	}
}

// TestTraceReplayRejectsBadAddresses replays crafted traces holding one
// load outside the benchmark's footprint (2^40) or outside the 48-bit
// virtual address space (2^50). Each must exit 1 with a one-line trace:
// error naming the record and the address, neither panicking in the
// core nor aliasing onto a mapped page.
func TestTraceReplayRejectsBadAddresses(t *testing.T) {
	for _, va := range []arch.VirtAddr{1 << 40, 1 << 50} {
		path := filepath.Join(t.TempDir(), "bad.trace")
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(cpu.Instr{Kind: cpu.Load, VA: va}); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := run([]string{"trace", "-bench=hmmer", "-in=" + path}, &stdout, &stderr)
		msg := stderr.String()
		want := fmt.Sprintf("overlaysim: trace: record 0: va %#x ", uint64(va))
		if code != 1 || !strings.HasPrefix(msg, want) || strings.Count(msg, "\n") != 1 {
			t.Errorf("va %#x: exit %d, stderr %q; want exit 1 and one line starting %q (stdout %q)",
				uint64(va), code, msg, want, stdout.String())
		}
	}
}
