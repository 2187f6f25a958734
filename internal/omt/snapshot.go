package omt

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: the authoritative Table is shared node for node
// with the capture (Table.Share) and the controller cache's
// intrusive-LRU residency state is captured by value. Restored cache
// slots resolve entries dynamically through Table.Ref, so re-pointing a
// restored cache at a forked table is all the rebinding needed.

// CacheSnapshot is an immutable capture of the OMT cache's residency
// and LRU state.
type CacheSnapshot struct {
	slots      []cacheSlot
	index      map[arch.OPN]int32
	head, tail int32
	free       []int32
}

// Bytes returns the bytes the capture holds (the index counted at its
// keys and values).
func (s *CacheSnapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) + len(s.slots)*int(unsafe.Sizeof(cacheSlot{})) +
		len(s.index)*12 + 4*len(s.free)
}

// Snapshot captures the cache's LRU list, slot array and index.
func (c *Cache) Snapshot() *CacheSnapshot {
	s := &CacheSnapshot{
		slots: append([]cacheSlot(nil), c.slots...),
		index: make(map[arch.OPN]int32, len(c.index)),
		head:  c.head,
		tail:  c.tail,
		free:  append([]int32(nil), c.free...),
	}
	for k, v := range c.index {
		s.index[k] = v
	}
	return s
}

// Restore loads the captured residency state into this cache and points
// it at the given table (a fork's own copy of the captured one). The
// cache must have the same capacity as the one that produced the
// snapshot.
func (c *Cache) Restore(s *CacheSnapshot, table *Table) {
	if len(s.slots) != len(c.slots) {
		panic("omt: cache restore capacity mismatch")
	}
	copy(c.slots, s.slots)
	c.index = make(map[arch.OPN]int32, len(s.index))
	for k, v := range s.index {
		c.index[k] = v
	}
	c.head, c.tail = s.head, s.tail
	c.free = append(c.free[:0], s.free...)
	c.table = table
}
