// Package cache models the processor cache hierarchy of Table 2: a 64 KB
// 4-way L1 and 512 KB 8-way L2 with LRU and parallel tag/data lookup, and
// a 2 MB 16-way L3 with serial tag/data lookup and DRRIP replacement. All
// levels use 64 B lines, are write-back/write-allocate, and are
// non-inclusive.
//
// Cache tags are full widened physical addresses, so lines from the
// Overlay Address Space coexist with regular lines — the "wider cache
// tags" cost the paper accounts for in §4.5. The hierarchy is timing-only:
// functional data lives in internal/mem and is updated by the core
// framework at access time.
//
// Host-side layout: each level's tag store is one flat []uint64 (way w
// of set s at s*ways+w; a tag is the line number plus a valid bit, 0 is
// empty) with the dirty bits beside it, and the replacement policies
// keep their LRU stamps and DRRIP RRPVs in flat arrays of the same
// shape. The hierarchy tracks demand misses and prefetches in one
// in-flight table (an arch.LineMap keyed by line number), since a line
// is never both at once.
package cache

import (
	"fmt"

	"repro/internal/arch"
)

// validBit marks an occupied tag slot. A line number has at most
// 64-LineShift bits, so bit 63 of a tag is free; an empty slot is 0.
const validBit = uint64(1) << 63

// Replacement is a per-set replacement policy.
type Replacement interface {
	// OnHit is called when way in set hits.
	OnHit(set, way int)
	// OnMiss is called when a lookup misses in set (before any fill).
	OnMiss(set int)
	// OnFill is called after a block is installed into way of set.
	OnFill(set, way int)
	// Victim selects the way to evict from a full set.
	Victim(set int) int
}

// Cache is a single set-associative cache level. Way w of set s sits at
// index s*ways+w of tags and of dirty. A tag is the line number (the full
// widened address >> LineShift, overlay bit included) with validBit set;
// 0 marks an empty way.
type Cache struct {
	Name    string
	sets    int
	ways    int
	setMask uint64 // sets-1; sets is a power of two
	tags    []uint64
	dirty   []bool
	repl    Replacement

	Hits   uint64
	Misses uint64
}

// New builds a cache of sizeBytes capacity and the given associativity.
// newRepl constructs the replacement policy for (sets, ways).
func New(name string, sizeBytes, ways int, newRepl func(sets, ways int) Replacement) *Cache {
	lines := sizeBytes / arch.LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", name, sets))
	}
	return &Cache{
		Name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		tags:    make([]uint64, sets*ways),
		dirty:   make([]bool, sets*ways),
		repl:    newRepl(sets, ways),
	}
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// index maps addr to its set and tag.
func (c *Cache) index(addr arch.PhysAddr) (set int, tag uint64) {
	lineNum := uint64(addr) >> arch.LineShift
	return int(lineNum & c.setMask), lineNum | validBit
}

// row returns set's slice of the tag store and its first slot index.
func (c *Cache) row(set int) (tags []uint64, base int) {
	base = set * c.ways
	return c.tags[base : base+c.ways], base
}

// find returns the set holding addr and, when it is cached, its slot.
func (c *Cache) find(addr arch.PhysAddr) (set, slot int, ok bool) {
	set, tag := c.index(addr)
	row, base := c.row(set)
	for w, t := range row {
		if t == tag {
			return set, base + w, true
		}
	}
	return set, -1, false
}

// Lookup probes the cache. On a hit it updates replacement state, marks
// the line dirty if write is set, and returns true.
func (c *Cache) Lookup(addr arch.PhysAddr, write bool) bool {
	set, slot, ok := c.find(addr)
	if !ok {
		c.Misses++
		c.repl.OnMiss(set)
		return false
	}
	c.Hits++
	c.repl.OnHit(set, slot-set*c.ways)
	if write {
		c.dirty[slot] = true
	}
	return true
}

// Present reports whether the line is cached, without touching
// replacement or hit/miss statistics.
func (c *Cache) Present(addr arch.PhysAddr) bool {
	_, _, ok := c.find(addr)
	return ok
}

// Eviction describes a block displaced by Fill.
type Eviction struct {
	Addr  arch.PhysAddr
	Dirty bool
}

// Fill installs the line, evicting a victim if the set is full. The
// returned eviction is valid only when evicted is true. One scan of the
// set finds either the line itself (e.g. a racing prefetch already
// installed it: merge dirty state) or the first empty way.
func (c *Cache) Fill(addr arch.PhysAddr, dirty bool) (ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	row, base := c.row(set)
	way := -1
	for w, t := range row {
		if t == tag {
			c.dirty[base+w] = c.dirty[base+w] || dirty
			c.repl.OnFill(set, w)
			return Eviction{}, false
		}
		if t == 0 && way < 0 {
			way = w
		}
	}
	if way < 0 {
		way = c.repl.Victim(set)
		ev = Eviction{Addr: lineAddr(row[way]), Dirty: c.dirty[base+way]}
		evicted = true
	}
	row[way] = tag
	c.dirty[base+way] = dirty
	c.repl.OnFill(set, way)
	return ev, evicted
}

// lineAddr recovers the line address a tag names.
func lineAddr(tag uint64) arch.PhysAddr {
	return arch.PhysAddr((tag &^ validBit) << arch.LineShift)
}

// Invalidate removes the line if present, returning whether it was present
// and whether it was dirty.
func (c *Cache) Invalidate(addr arch.PhysAddr) (present, dirty bool) {
	_, slot, ok := c.find(addr)
	if !ok {
		return false, false
	}
	dirty = c.dirty[slot]
	c.tags[slot], c.dirty[slot] = 0, false
	return true, dirty
}

// Retag renames a cached line from oldAddr to newAddr, preserving dirty
// state. This implements the first step of an overlaying write (§4.3.3):
// the block's data stays in place and only its tag changes. It returns
// false when oldAddr is not cached. If the new tag maps to a different
// set, the line is refilled there (possibly evicting a victim).
func (c *Cache) Retag(oldAddr, newAddr arch.PhysAddr) (moved bool, ev Eviction, evicted bool) {
	set, slot, ok := c.find(oldAddr)
	if !ok {
		return false, Eviction{}, false
	}
	dirty := c.dirty[slot]
	newSet, newTag := c.index(newAddr)
	if newSet == set {
		c.tags[slot] = newTag
		return true, Eviction{}, false
	}
	c.tags[slot], c.dirty[slot] = 0, false
	ev, evicted = c.Fill(newAddr, dirty)
	return true, ev, evicted
}

// SetDirty marks a present line dirty (used when a retagged block absorbs
// the triggering store).
func (c *Cache) SetDirty(addr arch.PhysAddr) bool {
	_, slot, ok := c.find(addr)
	if !ok {
		return false
	}
	c.dirty[slot] = true
	return true
}

// DirtyLines returns the addresses of all dirty lines in set-then-way
// order (test/debug aid and used by flush-style promotions).
func (c *Cache) DirtyLines() []arch.PhysAddr {
	var out []arch.PhysAddr
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			out = append(out, lineAddr(t))
		}
	}
	return out
}
