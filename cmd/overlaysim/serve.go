package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// serve test hooks, nil outside the package tests: serveReady receives
// the bound address once the listener is up, and a close of serveStop
// triggers the same drain path a SIGTERM does.
var (
	serveReady chan<- string
	serveStop  <-chan struct{}
)

func newServeCmd() *command {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	df := addDaemonFlags(fs, "127.0.0.1:8080")
	workers := fs.Int("workers", 0, "jobs simulated concurrently (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 16, "accepted jobs that may wait behind the running ones")
	jobTimeout := fs.Duration("job-timeout", 0, "per-job wall-clock cap (0 = unbounded)")
	cacheSize := fs.Int("cache", 128, "result cache entries (negative disables caching)")
	snapCache := fs.Int("snapshot-cache", 32, "warm-state snapshot cache families (negative disables cross-job reuse)")
	register := fs.String("register", "", "coordinator base `URL` to self-register with (worker mode)")
	advertise := fs.String("advertise", "", "base `URL` this worker registers as (default http://<bound addr>)")
	return &command{
		name:    "serve",
		summary: "serve experiment jobs over HTTP (wire protocol: docs/API.md)",
		flags:   fs,
		prof:    addProfileFlags(fs),
		run: func(stdout, stderr io.Writer) error {
			if *workers < 0 {
				return usageError(fmt.Sprintf("invalid -workers %d: must be >= 0", *workers))
			}
			if *queue < 1 {
				return usageError(fmt.Sprintf("invalid -queue %d: must be >= 1", *queue))
			}
			if *jobTimeout < 0 {
				return usageError(fmt.Sprintf("invalid -job-timeout %s: must be >= 0", *jobTimeout))
			}
			if *advertise != "" && *register == "" {
				return usageError("-advertise requires -register")
			}
			logger, store, err := df.open(stderr)
			if err != nil {
				return err
			}
			cfg := server.Config{
				Workers:           *workers,
				QueueDepth:        *queue,
				JobTimeout:        *jobTimeout,
				CacheSize:         *cacheSize,
				SnapshotCacheSize: *snapCache,
				Store:             store,
				Logger:            logger,
				DisableTracing:    *df.noTrace,
			}
			d := daemon{
				name:  "serve",
				open:  func() service { return server.New(cfg) },
				ready: serveReady,
				stop:  serveStop,
			}
			if *register != "" {
				// Worker mode: keep this server announced to the
				// coordinator until shutdown (docs/CLUSTER.md).
				// Registration failures are retried on the loop's cadence
				// and never block serving.
				d.started = func(ctx context.Context, bound string) {
					url := *advertise
					if url == "" {
						url = "http://" + bound
					}
					go cluster.RegisterLoop(ctx, *register, url, 5*time.Second, logger)
				}
			}
			return d.run(df, logger, stdout)
		},
	}
}

// daemonFlags are the flags serve and coordinator share.
type daemonFlags struct {
	addr, store, logFormat, logLevel *string
	grace                            *time.Duration
	noTrace                          *bool
}

func addDaemonFlags(fs *flag.FlagSet, addr string) daemonFlags {
	return daemonFlags{
		addr:      fs.String("addr", addr, "listen `address` (host:port; port 0 picks a free port)"),
		grace:     fs.Duration("grace", 30*time.Second, "shutdown grace period for in-flight jobs"),
		logFormat: fs.String("log-format", "json", "structured log format: json or text"),
		logLevel:  fs.String("log-level", "info", "log level: debug, info, warn or error"),
		noTrace:   fs.Bool("no-trace", false, "disable per-job span tracing"),
		store:     fs.String("store", "", "persistent result store `directory` (empty disables the durable tier)"),
	}
}

// open validates the shared flags and builds the logger and the result
// store (nil without -store) they ask for.
func (f daemonFlags) open(stderr io.Writer) (*slog.Logger, server.ResultStore, error) {
	if *f.grace <= 0 {
		return nil, nil, usageError(fmt.Sprintf("invalid -grace %s: must be > 0", *f.grace))
	}
	if *f.logFormat != "json" && *f.logFormat != "text" {
		return nil, nil, usageError(fmt.Sprintf("invalid -log-format %q: json or text", *f.logFormat))
	}
	level, ok := obs.ParseLevel(*f.logLevel)
	if !ok {
		return nil, nil, usageError(fmt.Sprintf("invalid -log-level %q: debug, info, warn or error", *f.logLevel))
	}
	var store server.ResultStore
	if *f.store != "" {
		fsStore, err := cluster.NewFSStore(*f.store)
		if err != nil {
			return nil, nil, usageError(fmt.Sprintf("invalid -store: %v", err))
		}
		store = fsStore
	}
	return obs.NewLogger(stderr, *f.logFormat, level), store, nil
}

// service is what serve and coordinator run: a job frontend over the
// local or the remote executor.
type service interface {
	Handler() http.Handler
	Drain(ctx context.Context) error
}

// daemon is one long-running HTTP subcommand.
type daemon struct {
	name string         // the subcommand, which prefixes its banner and log records
	note string         // appended to the stdout banner
	open func() service // builds the service once the listener is bound

	ready chan<- string   // test hook: receives the bound address
	stop  <-chan struct{} // test hook: a close drains as SIGTERM does

	// started, when set, runs once the service is up, with a context
	// that ends when shutdown begins.
	started func(ctx context.Context, bound string)
}

// run listens on -addr and serves until SIGINT/SIGTERM (or the stop
// hook), then drains: intake stops with 503, in-flight jobs get the
// -grace period to finish, stragglers are cancelled. A clean drain
// exits 0; an expired grace period is a runtime error (exit 1).
func (d daemon) run(f daemonFlags, logger *slog.Logger, stdout io.Writer) error {
	ln, err := net.Listen("tcp", *f.addr)
	if err != nil {
		return usageError(fmt.Sprintf("invalid -addr: %v", err))
	}
	svc := d.open()
	hs := &http.Server{Handler: svc.Handler()}

	sigCtx, stopSignals := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	prefix := "overlaysim " + d.name + ": "
	fmt.Fprintf(stdout, "%slistening on http://%s%s\n", prefix, ln.Addr(), d.note)
	logger.Info(prefix+"listening", "addr", ln.Addr().String())
	if d.ready != nil {
		d.ready <- ln.Addr().String()
	}
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	if d.started != nil {
		d.started(runCtx, ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // the listener died on its own
	case <-sigCtx.Done():
	case <-d.stop:
	}
	// Restore default signal handling so a second signal kills the
	// process instead of waiting out the grace period.
	stopSignals()
	stopRun()

	logger.Info(prefix+"shutting down, draining jobs", "grace", f.grace.String())
	graceCtx, cancel := context.WithTimeout(context.Background(), *f.grace)
	defer cancel()
	drainErr := svc.Drain(graceCtx)

	// All jobs are terminal now, so event streams and waiting submits
	// unblock promptly; Shutdown just flushes the last responses. It
	// also waits for any connection a client dialled but never used,
	// which net/http counts as idle only after 5 s, so the deadline
	// leaves room beyond that.
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShut()
	if err := hs.Shutdown(shutCtx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr == nil {
		logger.Info(prefix + "drained cleanly")
	} else {
		logger.Error(prefix+"drain failed", "err", drainErr.Error())
	}
	return drainErr
}
