package server

// ResultStore is the persistent tier under the in-memory LRU result
// cache: rendered job exports, content-addressed by the canonical
// spec digest (exp.JobSpec.Key). The same digest keys the LRU, the
// store, and the cluster coordinator's shard routing — a regression
// test pins the three together, because a divergence would silently
// split the fleet-wide cache.
//
// Semantics the server relies on:
//
//   - Get returns (result, true, nil) only for a previously Put key,
//     and only valid JSON: job documents splice the bytes in
//     unchecked. A missing key is (nil, false, nil); a corrupt or
//     unreadable entry is an error, which the server treats as a miss
//     (the job re-runs and Put overwrites the bad entry).
//   - Put is atomic: a concurrent Get sees the old entry or the new
//     one, never a torn write. Re-putting a key is idempotent — the
//     simulator is deterministic, so both writers hold the same bytes.
//   - Implementations must be safe for concurrent use.
//
// The filesystem implementation lives in internal/cluster (FSStore) so
// one directory can back any number of workers and coordinators on a
// shared mount; nil disables the tier.
type ResultStore interface {
	Get(key string) ([]byte, bool, error)
	Put(key string, result []byte) error
}
