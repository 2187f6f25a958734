package cache

import (
	"fmt"
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: a Cache's tag state, its replacement policy's
// internal state, and the whole Hierarchy can be captured at a
// quiescence point (no in-flight misses or prefetches) and restored
// onto a freshly constructed hierarchy of the same configuration.
// The stats-registry counters are restored separately through
// sim.Stats; Cache.Hits/Misses are plain struct fields and so are
// captured here.
//
// A capture holds only the valid ways. Restore leaves every empty way
// at its constructor value (tag 0, clean, LRU stamp 0, DRRIP RRPV
// rrpvMax), which is exact: Fill installs into the first empty way and
// calls OnFill on it, so a way's replacement word is rewritten whenever
// the way becomes valid, and Victim runs only on full sets. An empty
// way's replacement word is therefore never read.

// capturedDirty is bit 63 of a captured line. Every captured way is
// valid, so the tag's validBit is implied and its place carries the
// dirty bit.
const capturedDirty = validBit

// replState is the opaque captured state of a replacement policy.
type replState interface{ bytes() int }

// replSnapshotter is implemented by the built-in policies. A custom
// Replacement that does not implement it cannot be snapshotted. Both
// methods see the level's valid ways as a bitmap over flat way indices:
// snapshotRepl keeps their words only, and restoreRepl resets every way
// to its constructor value before loading them.
type replSnapshotter interface {
	snapshotRepl(valid arch.Bitmap) replState
	restoreRepl(s replState, valid arch.Bitmap)
}

type lruState struct {
	stamp []uint64 // valid ways only
	clock uint64
}

func (s lruState) bytes() int { return 8*len(s.stamp) + 8 }

func (l *lru) snapshotRepl(valid arch.Bitmap) replState {
	return lruState{stamp: arch.Gather(valid, l.stamp), clock: l.clock}
}

func (l *lru) restoreRepl(s replState, valid arch.Bitmap) {
	st := s.(lruState)
	clear(l.stamp)
	arch.Scatter(valid, st.stamp, l.stamp)
	l.clock = st.clock
}

type drripState struct {
	rrpv    []uint8 // valid ways only
	psel    int
	fillSeq uint64
}

func (s drripState) bytes() int { return len(s.rrpv) + 16 }

func (d *drrip) snapshotRepl(valid arch.Bitmap) replState {
	return drripState{rrpv: arch.Gather(valid, d.rrpv), psel: d.psel, fillSeq: d.fillSeq}
}

func (d *drrip) restoreRepl(s replState, valid arch.Bitmap) {
	st := s.(drripState)
	for i := range d.rrpv {
		d.rrpv[i] = rrpvMax
	}
	arch.Scatter(valid, st.rrpv, d.rrpv)
	d.psel = st.psel
	d.fillSeq = st.fillSeq
}

// Snapshot is an immutable capture of one cache level's valid ways.
type Snapshot struct {
	slots        int         // the level's sets × ways
	valid        arch.Bitmap // flat indices of the valid ways
	lines        []uint64    // each valid way's line number | capturedDirty, in index order
	hits, misses uint64
	repl         replState
}

// Bytes returns the bytes the capture holds.
func (s *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) + s.valid.Bytes() + 8*len(s.lines) + s.repl.bytes()
}

// Snapshot captures the cache's valid ways, hit/miss totals and
// replacement state. It panics if the replacement policy is not one of
// the built-in snapshottable ones.
func (c *Cache) Snapshot() *Snapshot {
	rs, ok := c.repl.(replSnapshotter)
	if !ok {
		panic(fmt.Sprintf("cache %s: replacement policy %T is not snapshottable", c.Name, c.repl))
	}
	valid := arch.NewBitmap(len(c.tags))
	for i, t := range c.tags {
		if t != 0 {
			valid.Set(i)
		}
	}
	lines := make([]uint64, 0, valid.Count())
	valid.Each(func(i int) {
		line := c.tags[i] &^ validBit
		if c.dirty[i] {
			line |= capturedDirty
		}
		lines = append(lines, line)
	})
	return &Snapshot{
		slots:  len(c.tags),
		valid:  valid,
		lines:  lines,
		hits:   c.Hits,
		misses: c.Misses,
		repl:   rs.snapshotRepl(valid),
	}
}

// Restore loads the captured state into this cache, which must have the
// same geometry and replacement policy kind. Ways the capture did not
// hold are left empty, at their constructor values.
func (c *Cache) Restore(s *Snapshot) {
	if s.slots != len(c.tags) {
		panic(fmt.Sprintf("cache %s: restore geometry mismatch", c.Name))
	}
	clear(c.tags)
	clear(c.dirty)
	k := 0
	s.valid.Each(func(i int) {
		line := s.lines[k]
		k++
		c.tags[i] = line&^capturedDirty | validBit
		c.dirty[i] = line&capturedDirty != 0
	})
	c.Hits, c.Misses = s.hits, s.misses
	c.repl.(replSnapshotter).restoreRepl(s.repl, s.valid)
}

// HierarchySnapshot captures all three levels of a quiescent hierarchy.
type HierarchySnapshot struct {
	L1, L2, L3 *Snapshot
}

// Bytes returns the bytes the three level captures hold.
func (s *HierarchySnapshot) Bytes() int {
	return s.L1.Bytes() + s.L2.Bytes() + s.L3.Bytes()
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
