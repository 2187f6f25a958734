package exp

// Warm-state reuse plumbing: fork and compare run each benchmark's
// warm-up once, capture a core.Snapshot at the fork point, and resume
// every measurement run from the capture with copy-on-write memory
// sharing. Forked runs are bit-identical to cold runs — the equivalence
// is enforced by tests and a CI gate — so reuse is purely an execution
// optimisation, like the harness's worker count. Pool.Cold switches it
// off. Only a warm-up is worth capturing: a framework that has never
// run holds nothing a fork could share, so SpMV and sweep runs build
// theirs with core.New.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Telemetry counter names for warm-state reuse. They are deliberately
// kept out of every per-run framework registry (which must stay
// bit-identical between cold and forked runs) and attached post hoc to
// exports and server telemetry.
const (
	SnapForksCounter   = "sim.snapshot.forks"
	SnapWarmupsCounter = "sim.snapshot.warmups_reused"
)

// SnapshotStats tallies warm-state reuse across one experiment run.
// All fields are updated atomically; a nil *SnapshotStats is a valid
// no-op sink.
type SnapshotStats struct {
	families      atomic.Uint64
	forks         atomic.Uint64
	warmupsReused atomic.Uint64
	warmupSavedUS atomic.Uint64 // microseconds of warm-up wall clock skipped
}

func (s *SnapshotStats) addFamily() {
	if s != nil {
		s.families.Add(1)
	}
}

func (s *SnapshotStats) addFork(reusedWarmup bool, warmupSavedUS uint64) {
	if s == nil {
		return
	}
	s.forks.Add(1)
	if reusedWarmup {
		s.warmupsReused.Add(1)
		s.warmupSavedUS.Add(warmupSavedUS)
	}
}

// Provenance reduces the tallies to their exported form.
func (s *SnapshotStats) Provenance() SnapshotProvenance {
	if s == nil {
		return SnapshotProvenance{}
	}
	return SnapshotProvenance{
		Families:      s.families.Load(),
		Forks:         s.forks.Load(),
		WarmupsReused: s.warmupsReused.Load(),
		WarmupMSSaved: float64(s.warmupSavedUS.Load()) / 1000,
	}
}

// SnapshotProvenance is the exported warm-state-reuse record: how many
// family snapshots were built, how many runs resumed from one, and what
// the reuse saved (warm-up wall clock).
type SnapshotProvenance struct {
	Families      uint64  `json:"families"`
	Forks         uint64  `json:"forks"`
	WarmupsReused uint64  `json:"warmups_reused"`
	WarmupMSSaved float64 `json:"warmup_ms_saved"`
}

// Empty reports whether no reuse happened (cold run or degenerate
// experiment).
func (p SnapshotProvenance) Empty() bool {
	return p.Families == 0 && p.Forks == 0
}

// accumulate sums another record into this one (bench report totals).
func (p *SnapshotProvenance) accumulate(q SnapshotProvenance) {
	p.Families += q.Families
	p.Forks += q.Forks
	p.WarmupsReused += q.WarmupsReused
	p.WarmupMSSaved += q.WarmupMSSaved
}

// AttachCounters adds the deterministic reuse tallies (counts, never
// wall clock) to an export's counter map, so
// CLI -json documents and served jobs expose identical telemetry.
func (p SnapshotProvenance) AttachCounters(ex *sim.Export) {
	if ex == nil || p.Empty() {
		return
	}
	if ex.Counters == nil {
		ex.Counters = make(map[string]uint64, 2)
	}
	ex.Counters[SnapForksCounter] = p.Forks
	ex.Counters[SnapWarmupsCounter] = p.WarmupsReused
}

// AttachStats adds the same tallies to a stats registry (the serving
// layer merges per-job registries into its /metrics telemetry).
func (p SnapshotProvenance) AttachStats(stats *sim.Stats) {
	if stats == nil || p.Empty() {
		return
	}
	stats.Add(SnapForksCounter, p.Forks)
	stats.Add(SnapWarmupsCounter, p.WarmupsReused)
}

// SnapshotCache is a bounded LRU of family snapshots keyed by a
// canonical family descriptor (experiment plus every knob that shapes
// the warm state — the same canonicalisation discipline as the job
// result cache's spec digest). Entries are immutable once built, so a
// cached family can be forked by any number of concurrent jobs; the
// bound exists only to cap memory. Safe for concurrent use.
type SnapshotCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List               // built families; front = most recently used
	entries map[string]*list.Element // built, or building outside ll
	bytes   int                      // the resident families' Bytes(), summed
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type snapCacheEntry struct {
	key   string
	once  sync.Once
	value any
	err   error
	bytes int // counted in SnapshotCache.bytes while resident (guarded by mu)
}

// NewSnapshotCache builds a cache bounded to max families (max <= 0
// disables caching: every lookup builds).
func NewSnapshotCache(max int) *SnapshotCache {
	return &SnapshotCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// Hits and Misses report the cache's lifetime lookup tallies.
func (c *SnapshotCache) Hits() uint64   { return c.hits.Load() }
func (c *SnapshotCache) Misses() uint64 { return c.misses.Load() }

// Bytes reports the bytes the cached families hold, as their Bytes
// methods count them.
func (c *SnapshotCache) Bytes() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Len reports the number of cached families.
func (c *SnapshotCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// getOrBuild returns the family stored under key, building it at most
// once per residency (concurrent callers for the same key share one
// build). A nil cache or a non-positive bound degrades to a plain
// build. Only a successful build joins the LRU list and evicts, so a
// failed one, which is not cached, costs no resident family.
func (c *SnapshotCache) getOrBuild(key string, build func() (any, error)) (any, error) {
	if c == nil || c.max <= 0 {
		return build()
	}
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		c.ll.MoveToFront(el) // a no-op while the build runs
	} else {
		el = &list.Element{Value: &snapCacheEntry{key: key}}
		c.entries[key] = el
	}
	entry := el.Value.(*snapCacheEntry)
	c.mu.Unlock()

	built := false
	entry.once.Do(func() {
		built = true
		entry.value, entry.err = build()
	})
	size := 0
	if built {
		c.misses.Add(1)
		if sized, ok := entry.value.(interface{ Bytes() int }); ok {
			size = sized.Bytes()
		}
	} else {
		c.hits.Add(1)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if entry.err != nil {
		// Do not let a transient failure poison the key: drop the entry
		// so the next lookup retries.
		if c.entries[entry.key] == el {
			delete(c.entries, entry.key)
		}
		return nil, entry.err
	}
	if built {
		entry.bytes = size
		c.bytes += size
		c.entries[entry.key] = c.ll.PushFront(entry)
		for c.ll.Len() > c.max {
			c.remove(c.ll.Back())
		}
	}
	return entry.value, nil
}

// remove evicts el; c.mu must be held.
func (c *SnapshotCache) remove(el *list.Element) {
	entry := el.Value.(*snapCacheEntry)
	c.ll.Remove(el)
	delete(c.entries, entry.key)
	c.bytes -= entry.bytes
	entry.bytes = 0
}

// snapSpan opens one warm-state phase span ("fork.snapshot" around a
// capture, "fork.resume" around a fork's reconstruction) as a child of
// the context's active span. Nil-safe and free when tracing is off.
func snapSpan(ctx context.Context, name, family string) *obs.Span {
	_, span := obs.StartSpan(ctx, name)
	if span != nil {
		span.SetAttr("family", family)
	}
	return span
}
