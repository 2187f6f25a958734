// Package cluster shards overlaysim job execution across a fleet of
// serve processes (see docs/CLUSTER.md).
//
// A Coordinator is the remote executor behind internal/server's job
// frontend, so it fronts N workers — ordinary `overlaysim serve`
// processes — with the same /v1/jobs API a single node exposes; the
// frontend's submission path, job records, drain and handlers are the
// ones a worker runs. What the Coordinator adds is the routing: each
// admitted job is forwarded to the worker its canonical spec digest
// (exp.JobSpec.Key) rendezvous-hashes to among the healthy workers, so
// identical specs land on the same shard and its in-memory caches, and
// losing a worker re-ranks only that worker's keys. Progress is
// followed over the worker's SSE feed and re-published on the
// coordinator's own /v1/jobs/{id}/events, so clients keep one
// connection even when a job is re-routed mid-flight. The coordinator
// has no in-memory result tier of its own: its store answers repeats,
// and a repeat's owning worker holds it in its LRU.
//
// Three properties make sharding sound here: the simulator is
// deterministic (any worker computes bit-identical results for a
// spec), results are content-addressed by the spec digest (the same
// key names the coordinator's route, every worker's LRU slot and the
// persistent store entry), and completed results are immutable. A
// coordinator therefore never needs job affinity for correctness —
// only for cache locality — and re-running a lost job on another
// shard is always safe.
//
// FSStore is the package's persistent ResultStore: one directory,
// one file per digest, shared by any number of workers and
// coordinators on a common mount. It backs the server.Config.Store
// tier as well as the coordinator's own result cache, so completed
// work survives process restarts and is deduplicated fleet-wide.
package cluster
