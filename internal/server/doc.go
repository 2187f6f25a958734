// Package server exposes the experiment harness over HTTP. It holds
// the one job frontend both serving binaries run: `overlaysim serve`
// over the local executor built by New, and `overlaysim coordinator`
// over internal/cluster's remote executor. The split mirrors the
// paper's framework, which separates mechanism (the overlay hardware
// of §3–4) from the workloads driving it — here the simulator is the
// mechanism and HTTP clients are the workloads.
//
// The frontend (Server) owns everything a client sees: the /v1/jobs
// routes and their middleware; submission — drain check, in-memory
// LRU, single-flight join, persistent store, then admission by the
// Executor, after which an accepted job enters the job table and a
// refused one is dropped, with every submission that joined it
// answered by the same refusal; the job table and each job's
// document; the terminal transition, which writes a result through
// to the store before publishing it; drain; and /healthz, /readyz and
// the registry half of /metrics. A Tier names what else sets one
// frontend apart: its job-ID prefix, root span, counter prefix and
// whether it has a memory tier.
//
// The local executor queues accepted jobs in a bounded queue
// (backpressure is a 429 with Retry-After, never an unbounded buffer);
// a fixed pool of workers runs each job through internal/harness
// (which contributes panic recovery and the per-job timeout) and the
// experiment's own harness fan-out underneath. Progress streams to
// subscribers as Server-Sent Events; results land in an LRU cache
// keyed by the spec's canonical hash. /metrics renders the
// internal/sim telemetry registry — frontend counters plus the
// simulator histograms merged in from completed jobs — in Prometheus
// text format.
//
// Invariants the package maintains:
//
//   - Determinism: a job's result depends only on its canonical spec.
//     The simulator is deterministic and bit-identical at any harness
//     width, so serving a cached result is indistinguishable from
//     re-running the job — the integration tests in cmd/overlaysim
//     prove served results byte-identical to CLI -json output.
//   - Bounded memory: at most QueueDepth jobs wait, at most Workers
//     run, at most CacheSize results are retained.
//   - Clean shutdown: Drain stops intake (503), lets in-flight jobs
//     finish inside the grace period, and cancels stragglers after it.
//   - A refused submission registers nothing, on either tier.
//   - Job records are immutable once terminal; every terminal state
//     closes the job's done channel exactly once and delivers a final
//     SSE event to every subscriber.
//
// See docs/API.md for the wire protocol.
package server
