package cache

import "fmt"

// Snapshot support: a Cache's tag state, its replacement policy's
// internal state, and the whole Hierarchy can be captured at a
// quiescence point (no in-flight misses or prefetches) and restored
// onto a freshly constructed hierarchy of the same configuration.
// The stats-registry counters are restored separately through
// sim.Stats; Cache.Hits/Misses are plain struct fields and so are
// captured here.

// replState is the opaque captured state of a replacement policy.
type replState interface{ isReplState() }

// replSnapshotter is implemented by the built-in policies. A custom
// Replacement that does not implement it cannot be snapshotted.
type replSnapshotter interface {
	snapshotRepl() replState
	restoreRepl(replState)
}

type lruState struct {
	stamp []uint64
	clock uint64
}

func (lruState) isReplState() {}

func (l *lru) snapshotRepl() replState {
	return lruState{stamp: append([]uint64(nil), l.stamp...), clock: l.clock}
}

func (l *lru) restoreRepl(s replState) {
	st := s.(lruState)
	copy(l.stamp, st.stamp)
	l.clock = st.clock
}

type drripState struct {
	rrpv    []uint8
	psel    int
	fillSeq uint64
}

func (drripState) isReplState() {}

func (d *drrip) snapshotRepl() replState {
	return drripState{rrpv: append([]uint8(nil), d.rrpv...), psel: d.psel, fillSeq: d.fillSeq}
}

func (d *drrip) restoreRepl(s replState) {
	st := s.(drripState)
	copy(d.rrpv, st.rrpv)
	d.psel = st.psel
	d.fillSeq = st.fillSeq
}

// Snapshot is an immutable capture of one cache level.
type Snapshot struct {
	tags         []uint64
	dirty        []bool
	hits, misses uint64
	repl         replState
}

// Snapshot captures the cache's tag array, hit/miss totals and
// replacement state. It panics if the replacement policy is not one of
// the built-in snapshottable ones.
func (c *Cache) Snapshot() *Snapshot {
	rs, ok := c.repl.(replSnapshotter)
	if !ok {
		panic(fmt.Sprintf("cache %s: replacement policy %T is not snapshottable", c.Name, c.repl))
	}
	return &Snapshot{
		tags:   append([]uint64(nil), c.tags...),
		dirty:  append([]bool(nil), c.dirty...),
		hits:   c.Hits,
		misses: c.Misses,
		repl:   rs.snapshotRepl(),
	}
}

// Restore loads the captured state into this cache, which must have the
// same geometry and replacement policy kind.
func (c *Cache) Restore(s *Snapshot) {
	if len(s.tags) != len(c.tags) {
		panic(fmt.Sprintf("cache %s: restore geometry mismatch", c.Name))
	}
	copy(c.tags, s.tags)
	copy(c.dirty, s.dirty)
	c.Hits, c.Misses = s.hits, s.misses
	c.repl.(replSnapshotter).restoreRepl(s.repl)
}

// HierarchySnapshot captures all three levels of a quiescent hierarchy.
type HierarchySnapshot struct {
	L1, L2, L3 *Snapshot
}

// Snapshot captures the hierarchy. It panics if misses or prefetches
// are still in flight — snapshots are only taken after the engine's
// event queue has drained, at which point the MSHRs are empty.
func (h *Hierarchy) Snapshot() *HierarchySnapshot {
	if h.inflight.Len() != 0 {
		panic("cache: hierarchy snapshot with in-flight misses")
	}
	return &HierarchySnapshot{L1: h.L1.Snapshot(), L2: h.L2.Snapshot(), L3: h.L3.Snapshot()}
}

// Restore loads the captured levels into this hierarchy.
func (h *Hierarchy) Restore(s *HierarchySnapshot) {
	h.L1.Restore(s.L1)
	h.L2.Restore(s.L2)
	h.L3.Restore(s.L3)
}
