// Command overlaysim drives the page-overlay simulator's experiment
// harness. Each subcommand regenerates one table or figure from the
// paper's evaluation (§5), or serves or checks them:
//
//	overlaysim config                 Table 2 (simulated system)
//	overlaysim fork                   Figures 8 and 9 (overlay-on-write vs copy-on-write)
//	overlaysim spmv                   Figure 10 (SpMV: overlays vs CSR)
//	overlaysim linesize               Figure 11 (memory overhead vs granularity)
//	overlaysim sweep                  §5.2 sparsity sweep (overlays vs dense)
//	overlaysim dualcore               extension: divergence with both processes running
//	overlaysim compare                cross-backend comparison (overlay / baseline / vbi / utopia)
//	overlaysim omsstress              multi-tenant OMS churn with cooling eviction and spill tier
//	overlaysim bench                  fixed job matrix: parallel-vs-sequential baseline for CI
//	overlaysim trace                  record a workload trace / replay one through the simulator
//	overlaysim stats                  run one fork benchmark and dump all counters
//	overlaysim serve                  serve experiment jobs over HTTP (docs/API.md)
//	overlaysim coordinator            shard jobs across serve workers (docs/CLUSTER.md)
//
// The seven experiment subcommands, fork through omsstress, are built
// from the registry exp.Experiments: each binds its experiment's flags
// onto an exp.JobSpec and runs it with JobSpec.Run, as a served job does,
// so its -json export is byte-identical to the served result. They add
// only CLI outputs: -json=<file> (schema-versioned export), -csv=<file>
// (epoch series rows), -tracelog=<file> (Chrome trace_event JSON for
// chrome://tracing / Perfetto), -spans=<file>, -tracecap and -epoch.
// Every subcommand accepts -cpuprofile=<file> and -memprofile=<file> to
// capture pprof profiles of the invocation. Usage errors exit with
// status 2, runtime errors with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// command is one subcommand: its flag set is bound to closure variables
// inside the constructor, and run executes after a successful parse.
// Live progress goes to stderr; results go to stdout.
type command struct {
	name    string
	summary string
	flags   *flag.FlagSet
	prof    *profileFlags
	run     func(stdout, stderr io.Writer) error
}

// usageError marks an error as a bad-invocation problem (exit status 2)
// rather than a runtime failure (exit status 1).
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches args to a subcommand and returns the process exit code:
// 0 on success, 1 on runtime error, 2 on usage error.
func run(args []string, stdout, stderr io.Writer) int {
	cmds := commands()
	usage := func() {
		fmt.Fprintln(stderr, "usage: overlaysim <command> [flags]")
		fmt.Fprintln(stderr, "\ncommands:")
		for _, c := range cmds {
			fmt.Fprintf(stderr, "\n  %-10s %s\n", c.name, c.summary)
			c.flags.SetOutput(stderr)
			c.flags.PrintDefaults()
		}
	}
	if len(args) < 1 {
		usage()
		return 2
	}
	var cmd *command
	for _, c := range cmds {
		if c.name == args[0] {
			cmd = c
			break
		}
	}
	if cmd == nil {
		fmt.Fprintf(stderr, "overlaysim: unknown command %q\n", args[0])
		usage()
		return 2
	}
	cmd.flags.SetOutput(stderr)
	if err := cmd.flags.Parse(args[1:]); err != nil {
		return 2
	}
	exitCode := func(err error) int {
		fmt.Fprintln(stderr, "overlaysim:", err)
		var ue usageError
		if errors.As(err, &ue) {
			return 2
		}
		return 1
	}
	stopProfiles, err := cmd.prof.start()
	if err != nil {
		return exitCode(err)
	}
	err = cmd.run(stdout, stderr)
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	if err != nil {
		return exitCode(err)
	}
	return 0
}

// commands builds a fresh subcommand table (fresh flag sets, so tests can
// invoke run repeatedly without flag redefinition panics).
func commands() []*command {
	cmds := []*command{newConfigCmd()}
	for _, e := range exp.Experiments {
		cmds = append(cmds, newExperimentCmd(e))
	}
	return append(cmds, newBenchCmd(), newTraceCmd(), newStatsCmd(), newServeCmd(), newCoordinatorCmd())
}

// profileFlags is the pprof flag group shared by every subcommand.
type profileFlags struct {
	cpuPath string
	memPath string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	p := &profileFlags{}
	fs.StringVar(&p.cpuPath, "cpuprofile", "", "write a pprof CPU profile of this invocation to `file`")
	fs.StringVar(&p.memPath, "memprofile", "", "write a pprof heap profile taken at exit to `file`")
	return p
}

// start opens both profile outputs (so an unwritable path fails fast, as
// a usage error) and begins CPU profiling. The returned stop function
// finishes the CPU profile and records the heap profile; it must be
// called exactly once.
func (p *profileFlags) start() (stop func() error, err error) {
	var cpuFh, memFh *os.File
	if p.cpuPath != "" {
		if cpuFh, err = os.Create(p.cpuPath); err != nil {
			return nil, usageError(fmt.Sprintf("invalid -cpuprofile: %v", err))
		}
	}
	if p.memPath != "" {
		if memFh, err = os.Create(p.memPath); err != nil {
			if cpuFh != nil {
				cpuFh.Close()
			}
			return nil, usageError(fmt.Sprintf("invalid -memprofile: %v", err))
		}
	}
	if cpuFh != nil {
		if err := pprof.StartCPUProfile(cpuFh); err != nil {
			cpuFh.Close()
			if memFh != nil {
				memFh.Close()
			}
			return nil, err
		}
	}
	return func() error {
		var firstErr error
		if cpuFh != nil {
			pprof.StopCPUProfile()
			firstErr = cpuFh.Close()
		}
		if memFh != nil {
			runtime.GC() // flatten transient garbage so live heap dominates
			if err := pprof.WriteHeapProfile(memFh); err != nil && firstErr == nil {
				firstErr = err
			}
			if err := memFh.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// telemetryFlags is the flag group shared by every measuring subcommand.
type telemetryFlags struct {
	jsonPath  string
	csvPath   string
	tracePath string
	spansPath string
	traceCap  int
	epoch     uint64
}

func addTelemetryFlags(fs *flag.FlagSet) *telemetryFlags {
	t := &telemetryFlags{}
	fs.StringVar(&t.jsonPath, "json", "", "write the machine-readable export (JSON, schema v1) to this `file`")
	fs.StringVar(&t.csvPath, "csv", "", "write epoch time-series rows (CSV) to this `file`")
	fs.StringVar(&t.tracePath, "tracelog", "", "write structured simulator events (Chrome trace_event JSON) to this `file`")
	fs.StringVar(&t.spansPath, "spans", "", "write host-side timing spans (JSONL) to this `file`; spans also merge into -tracelog")
	fs.IntVar(&t.traceCap, "tracecap", sim.DefaultTraceCap, "trace ring-buffer capacity in `events`")
	fs.Uint64Var(&t.epoch, "epoch", uint64(sim.DefaultEpoch), "series sampling period in `cycles`")
	return t
}

// traceLog returns the shared trace ring if -tracelog was given.
func (t *telemetryFlags) traceLog() *sim.TraceLog {
	if t.tracePath == "" {
		return nil
	}
	return sim.NewTraceLog(t.traceCap)
}

// traceContext equips the command's context with a span tracer when
// -spans (or -tracelog, which embeds the spans) was requested: the
// harness and experiment phases record wall-clock spans under a
// "cli.<cmd>" root. finish ends the root and returns every recorded
// span; without span output it returns nil and the context is plain.
func (t *telemetryFlags) traceContext(cmd string) (ctx context.Context, finish func() []obs.Span) {
	if t.spansPath == "" && t.tracePath == "" {
		return context.Background(), func() []obs.Span { return nil }
	}
	tr := obs.NewTracer(obs.TraceID{}, 0)
	ctx = obs.NewContext(context.Background(), tr)
	ctx, root := obs.StartSpan(ctx, "cli."+cmd)
	return ctx, func() []obs.Span {
		root.End()
		return tr.Spans()
	}
}

// telemetryOutputs holds the eagerly-created output files between a
// command's flag parse and its final write.
type telemetryOutputs struct {
	json, csv, trace, spans *os.File
}

// open creates every requested output file up front, so an unwritable
// path is a usage error (exit 2) before minutes of simulation — the
// same fail-fast contract profileFlags.start has.
func (t *telemetryFlags) open() (*telemetryOutputs, error) {
	o := &telemetryOutputs{}
	for _, out := range []struct {
		path string
		flag string
		dst  **os.File
	}{
		{t.jsonPath, "json", &o.json},
		{t.csvPath, "csv", &o.csv},
		{t.tracePath, "tracelog", &o.trace},
		{t.spansPath, "spans", &o.spans},
	} {
		if out.path == "" {
			continue
		}
		fh, err := os.Create(out.path)
		if err != nil {
			o.close()
			return nil, usageError(fmt.Sprintf("invalid -%s: %v", out.flag, err))
		}
		*out.dst = fh
	}
	return o, nil
}

// close releases any handles write has not consumed yet. Idempotent, so
// commands can defer it and still call write on the success path.
func (o *telemetryOutputs) close() {
	for _, fh := range []**os.File{&o.json, &o.csv, &o.trace, &o.spans} {
		if *fh != nil {
			(*fh).Close()
			*fh = nil
		}
	}
}

// flush emits one output and consumes its handle.
func flush(fh **os.File, emit func(io.Writer) error) error {
	if *fh == nil {
		return nil
	}
	err := emit(*fh)
	if cerr := (*fh).Close(); err == nil {
		err = cerr
	}
	*fh = nil
	return err
}

// write emits the requested telemetry files. Host-side spans go to
// -spans as JSONL and also merge into the -tracelog Chrome document
// (wall-clock spans at pid 0, simulated-cycle tracks at pid >= 1 when
// the run recorded any).
func (o *telemetryOutputs) write(ex *sim.Export, tl *sim.TraceLog, spans []obs.Span) error {
	defer o.close()
	if err := flush(&o.json, ex.WriteJSON); err != nil {
		return err
	}
	if err := flush(&o.csv, ex.WriteSeriesCSV); err != nil {
		return err
	}
	if err := flush(&o.spans, func(w io.Writer) error {
		return obs.WriteSpansJSONL(w, spans)
	}); err != nil {
		return err
	}
	return flush(&o.trace, func(w io.Writer) error {
		simRecords, err := tl.ChromeRecords()
		if err != nil {
			return err
		}
		spanRecords, err := obs.ChromeRecords(spans)
		if err != nil {
			return err
		}
		return sim.WriteChromeTrace(w, simRecords, spanRecords)
	})
}

func newConfigCmd() *command {
	fs := flag.NewFlagSet("config", flag.ContinueOnError)
	return &command{
		name:    "config",
		summary: "print the simulated system (Table 2)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			core.Describe(stdout, core.DefaultConfig())
			return nil
		},
	}
}

// newExperimentCmd builds the subcommand of one registered experiment:
// the experiment's flags bound onto a job spec, plus the CLI-only
// outputs. The spec runs through the same JobSpec.Run a served job does.
func newExperimentCmd(e *exp.Experiment) *command {
	fs := flag.NewFlagSet(e.Name, flag.ContinueOnError)
	spec := exp.JobSpec{Experiment: e.Name}
	e.Bind(fs, &spec)
	tel := addTelemetryFlags(fs)
	return &command{
		name:    e.Name,
		summary: e.Summary,
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			// A value the flag table rejects is a usage error. An unknown
			// benchmark is not: the run finds it (exit 1).
			check := spec
			check.Bench = ""
			var ve *exp.ValidationError
			if errors.As(check.ValidateFlags(), &ve) {
				return usageError(strings.Join(ve.Problems, "; "))
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			tl := tel.traceLog()
			ctx, finishSpans := tel.traceContext(e.Name)
			out, err := spec.Run(ctx, exp.Pool{Progress: stderr, Epoch: sim.Cycle(tel.epoch), Trace: tl})
			if err != nil {
				return err
			}
			e.Report(stdout, spec.Normalized(), out.Export)
			return outs.write(out.Export, tl, finishSpans())
		},
	}
}

func newBenchCmd() *command {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	short := fs.Bool("short", false, "run the quick CI matrix instead of the full one")
	parallel := fs.Int("parallel", 0, "worker goroutines for the parallel phase (0 = GOMAXPROCS)")
	jsonPath := fs.String("json", "", "write the machine-readable baseline (JSON, schema v1) to this `file`")
	check := fs.String("check", "", "compare this run against the recorded baseline `file`; drift exits 1")
	wallTol := fs.Float64("wall-tolerance", 0.25, "allowed wall-clock regression vs baseline (0.25 = +25%%; 0 disables)")
	benches := fs.String("benches", "", "override the fork benchmark list (comma-separated)")
	warm := fs.Uint64("warm", 0, "override fork warm-up instructions")
	measure := fs.Uint64("measure", 0, "override fork measured instructions")
	matrices := fs.Int("matrices", 0, "override the SpMV/linesize matrix count")
	points := fs.Int("points", 0, "override the sparsity-sweep point count")
	rows := fs.Int("rows", 0, "override the sparsity-sweep matrix dimension")
	return &command{
		name:    "bench",
		summary: "run the fixed experiment matrix sequentially and in parallel; baseline for CI",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			if *parallel < 0 {
				return usageError(fmt.Sprintf("invalid -parallel %d: must be >= 0", *parallel))
			}
			if *wallTol < 0 {
				return usageError(fmt.Sprintf("invalid -wall-tolerance %g: must be >= 0", *wallTol))
			}
			// Open the export and load the baseline before spending
			// minutes simulating: a bad path is a usage error now, not
			// a runtime error after the run.
			var jsonFh *os.File
			if *jsonPath != "" {
				var err error
				if jsonFh, err = os.Create(*jsonPath); err != nil {
					return usageError(fmt.Sprintf("invalid -json: %v", err))
				}
				defer jsonFh.Close()
			}
			var baseline *exp.BenchReport
			if *check != "" {
				fh, err := os.Open(*check)
				if err != nil {
					return err
				}
				baseline, err = exp.LoadBenchBaseline(fh)
				fh.Close()
				if err != nil {
					return fmt.Errorf("%s: %w", *check, err)
				}
			}
			plan := exp.DefaultBenchPlan()
			if *short {
				plan = exp.ShortBenchPlan()
			}
			if *benches != "" {
				plan.ForkNames = strings.Split(*benches, ",")
			}
			if *warm != 0 {
				plan.ForkParams.WarmInstructions = *warm
			}
			if *measure != 0 {
				plan.ForkParams.MeasureInstructions = *measure
			}
			if *matrices != 0 {
				plan.SpMVMatrices = *matrices
				plan.LineSizeMatrices = *matrices
			}
			if *points != 0 {
				plan.SweepPoints = *points
			}
			if *rows != 0 {
				plan.SweepRows = *rows
			}
			workers := *parallel
			if workers == 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			start := time.Now()
			report, err := exp.RunBench(context.Background(), plan, workers, stderr)
			if err != nil {
				return err
			}
			exp.PrintBench(stdout, report)
			if jsonFh != nil {
				ex := sim.NewExport("bench")
				ex.Meta = sim.NewRunMeta(workers)
				ex.Meta.WallMS = float64(time.Since(start).Microseconds()) / 1000
				ex.Config = plan
				ex.Results = report
				if err := ex.WriteJSON(jsonFh); err != nil {
					return err
				}
				if err := jsonFh.Close(); err != nil {
					return err
				}
			}
			if baseline != nil {
				if err := exp.CheckBench(baseline, report, *wallTol); err != nil {
					return err
				}
				fmt.Fprintf(stdout, "baseline check passed: metrics exact, wall within +%.0f%% of %s\n",
					*wallTol*100, *check)
			}
			return nil
		},
	}
}

func newStatsCmd() *command {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to run")
	backend := fs.String("backend", "", exp.BackendUsage)
	overlay := fs.Bool("overlay", true, "use overlay-on-write (false: copy-on-write)")
	measure := fs.Uint64("measure", exp.QuickForkParams().MeasureInstructions, "instructions after fork")
	tel := addTelemetryFlags(fs)
	return &command{
		name:    "stats",
		summary: "run one fork benchmark and dump all counters",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			spec, err := workload.ByName(*bench)
			if err != nil {
				return err
			}
			if err := core.ValidBackend(*backend); err != nil {
				return usageError(err.Error())
			}
			outs, err := tel.open()
			if err != nil {
				return err
			}
			defer outs.close()
			cfg := exp.ForkConfig(spec, exp.ForkBackend(*backend))
			tl := tel.traceLog()
			params := exp.ForkParams{
				WarmInstructions:    exp.QuickForkParams().WarmInstructions,
				MeasureInstructions: *measure,
				Backend:             cfg.Backend,
				SeriesEpoch:         sim.Cycle(tel.epoch),
				Trace:               tl,
			}
			ctx, finishSpans := tel.traceContext("stats")
			out, ex, err := exp.RunStatsExport(ctx, spec, cfg, params, *overlay)
			if err != nil {
				return err
			}
			fmt.Fprint(stdout, out)
			return outs.write(ex, tl, finishSpans())
		},
	}
}

func newTraceCmd() *command {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	bench := fs.String("bench", "mcf", "benchmark to record")
	out := fs.String("out", "", "record the trace to this file")
	in := fs.String("in", "", "replay a recorded trace through the simulator")
	n := fs.Uint64("n", 100000, "instructions to record")
	return &command{
		name:    "trace",
		summary: "record a workload trace / replay one through the simulator",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, _ io.Writer) error {
			switch {
			case *out != "" && *in != "":
				return usageError("trace: -out and -in are mutually exclusive")
			case *out != "":
				return traceRecord(stdout, *bench, *out, *n)
			case *in != "":
				return traceReplay(stdout, *bench, *in)
			}
			return usageError("trace: need -out (record) or -in (replay)")
		},
	}
}

func traceRecord(stdout io.Writer, bench, out string, n uint64) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	fh, err := os.Create(out)
	if err != nil {
		return err
	}
	defer fh.Close()
	count, err := trace.Record(fh, spec.NewTrace(), n)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %d instructions of %s to %s\n", count, bench, out)
	return nil
}

func traceReplay(stdout io.Writer, bench, in string) error {
	fh, err := os.Open(in)
	if err != nil {
		return err
	}
	defer fh.Close()
	r, err := trace.NewReader(fh)
	if err != nil {
		return err
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	f, err := core.New(exp.ForkConfig(spec, ""))
	if err != nil {
		return err
	}
	proc := f.VM.NewProcess()
	if err := spec.MapFootprint(f, proc); err != nil {
		return err
	}
	port := f.NewPort()
	// End at the first memory record the footprint does not map, which
	// the simulated core would otherwise take as a fault.
	var unmapped error
	c := cpu.New(f.Engine, port, proc.PID, cpu.FuncTrace(func() (cpu.Instr, bool) {
		in, ok := r.Next()
		if ok && in.Kind != cpu.Compute {
			if _, mapped := proc.Table.Get(in.VA.Page()); !mapped {
				unmapped = fmt.Errorf("trace: record %d: va %#x is outside %s's footprint", r.Count()-1, uint64(in.VA), bench)
				return cpu.Instr{}, false
			}
		}
		return in, ok
	}))
	c.Run(0)
	f.Engine.Run()
	if err := errors.Join(r.Err(), unmapped); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d instructions in %d cycles (CPI %.3f)\n",
		c.Retired(), c.Cycles(), c.CPI())
	return nil
}
