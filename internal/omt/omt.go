// Package omt implements the Overlay Mapping Table of §4.2/§4.4.4 and the
// memory controller's 64-entry OMT cache. The OMT maps each page of the
// Overlay Address Space (an OPN) to its OBitVector and the base address of
// the segment holding the overlay in the Overlay Memory Store. It is
// stored hierarchically like the virtual-to-physical tables and is owned
// entirely by the memory controller — the OS never walks it.
package omt

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Entry is one OMT entry: the page's overlay bit vector and the segment
// base in the Overlay Memory Store (0 = no segment allocated yet; space
// is allocated lazily on the first dirty overlay write-back, §4.3.3).
type Entry struct {
	OBits   arch.OBitVector
	SegBase arch.PhysAddr
}

// Empty reports whether the entry carries no overlay state.
func (e Entry) Empty() bool { return e.OBits == 0 && e.SegBase == 0 }

// Table is the in-memory OMT: a 6-level radix over the 52 meaningful
// OPN bits (overlay bit + 15-bit PID + 36-bit VPN), 9 bits a level.
type Table struct {
	tree arch.Radix[Entry]
}

// NewTable returns an empty table.
func NewTable() *Table { return &Table{arch.NewRadix[Entry](6)} }

// Get returns the entry for opn (zero entry if absent).
func (t *Table) Get(opn arch.OPN) Entry { return t.tree.Get(uint64(opn)) }

// Ref returns a writable pointer to the entry, materialising the path
// and copying any node shared with a capture. Write through it only
// until the next Share (arch.Radix).
func (t *Table) Ref(opn arch.OPN) *Entry { return t.tree.Ref(uint64(opn)) }

// Delete clears the entry for opn.
func (t *Table) Delete(opn arch.OPN) {
	if !t.Get(opn).Empty() {
		*t.Ref(opn) = Entry{}
	}
}

// Count returns the number of non-empty entries (the OMT's live
// metadata footprint; translation backends charge bytes per entry).
func (t *Table) Count() (n int) {
	t.tree.Range(func(uint64, Entry) bool { n++; return true })
	return n
}

// Share returns a table holding t's nodes for a capture (arch.Radix); a
// copy of the share is an independent table.
func (t *Table) Share() Table { return Table{t.tree.Share()} }

// Bytes returns the bytes the table's nodes hold.
func (t *Table) Bytes() int { return t.tree.Bytes() }

// Cache is the 64-entry OMT cache in the memory controller (Fig. 6, Ë).
// It is a latency model over the authoritative Table: entries returned by
// Lookup point directly into the table, so updates through them are
// automatically coherent; the cache decides only whether the access costs
// a hit or a full OMT walk.
// Residency is tracked with an intrusive doubly-linked LRU list over a
// fixed cap-sized slot array: hits and fills move the slot to the front,
// misses at capacity evict the tail. This selects exactly the victim the
// old timestamp scan did (least recently looked up), without the O(cap)
// minimum scan or a growing stamp map.
type Cache struct {
	table   *Table
	stats   *sim.Stats
	missLog *sim.Histogram // OMT walk penalty paid per cache miss
	cap     int
	hitLat  sim.Cycle
	missLat sim.Cycle

	slots      []cacheSlot
	index      map[arch.OPN]int32
	head, tail int32 // MRU at head, LRU at tail; -1 when empty
	free       []int32

	hits      *uint64
	misses    *uint64
	evictions *uint64
}

// cacheSlot is one residency slot in the LRU list.
type cacheSlot struct {
	opn        arch.OPN
	prev, next int32
}

// CacheConfig sizes the OMT cache.
type CacheConfig struct {
	Entries     int
	HitLatency  sim.Cycle
	MissLatency sim.Cycle // the OMT walk (Table 2: 1000 cycles)
}

// DefaultCacheConfig mirrors Table 2.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{Entries: 64, HitLatency: 5, MissLatency: 1000}
}

// NewCache builds the OMT cache over the table.
func NewCache(cfg CacheConfig, table *Table, stats *sim.Stats) *Cache {
	if cfg.Entries < 1 {
		panic("omt: cache needs at least one entry")
	}
	c := &Cache{
		table:   table,
		stats:   stats,
		cap:     cfg.Entries,
		hitLat:  cfg.HitLatency,
		missLat: cfg.MissLatency,
		slots:   make([]cacheSlot, cfg.Entries),
		index:   make(map[arch.OPN]int32, cfg.Entries),
		head:    -1,
		tail:    -1,
		free:    make([]int32, 0, cfg.Entries),
	}
	for i := cfg.Entries - 1; i >= 0; i-- {
		c.free = append(c.free, int32(i))
	}
	if stats != nil {
		c.missLog = stats.Histogram("omt.miss_penalty_cycles")
		c.hits = stats.Counter("omt.cache_hits")
		c.misses = stats.Counter("omt.cache_misses")
		c.evictions = stats.Counter("omt.cache_evictions")
	} else {
		var sink uint64
		c.hits, c.misses, c.evictions = &sink, &sink, &sink
	}
	return c
}

func (c *Cache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *Cache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Lookup returns the (authoritative) entry pointer for opn and the access
// latency: a cache hit or a full OMT walk that then fills the cache. The
// pointer comes from Table.Ref and obeys its validity rule.
func (c *Cache) Lookup(opn arch.OPN) (*Entry, sim.Cycle) {
	if i, ok := c.index[opn]; ok {
		if c.head != i {
			c.unlink(i)
			c.pushFront(i)
		}
		*c.hits++
		return c.table.Ref(opn), c.hitLat
	}
	*c.misses++
	if c.missLog != nil {
		c.missLog.Observe(uint64(c.missLat))
	}
	var i int32
	if n := len(c.free); n > 0 {
		i = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		i = c.tail
		c.unlink(i)
		delete(c.index, c.slots[i].opn)
		*c.evictions++
	}
	c.slots[i].opn = opn
	c.pushFront(i)
	c.index[opn] = i
	return c.table.Ref(opn), c.missLat
}

// Contains reports whether opn is cached (no latency, no LRU update).
func (c *Cache) Contains(opn arch.OPN) bool {
	_, ok := c.index[opn]
	return ok
}

// Invalidate drops opn from the cache (promotion/discard actions).
func (c *Cache) Invalidate(opn arch.OPN) {
	i, ok := c.index[opn]
	if !ok {
		return
	}
	c.unlink(i)
	delete(c.index, opn)
	c.free = append(c.free, i)
}
