package arch

// LineMap is an open-addressing (linear probing) hash map keyed by cache
// line number (a PhysAddr shifted right by LineShift). It replaces Go maps
// on per-access paths: the cache hierarchy's in-flight fetch table and
// the DRAM write buffer's forwarding check both use it. Deletion uses
// backward shift, so no tombstones accumulate and a probe stops at the
// first empty slot.
//
// The zero value is an empty map ready to use. A line number has at most
// 64-LineShift bits, so the all-ones key can never occur and marks an
// empty slot.
type LineMap[V any] struct {
	keys []uint64 // emptyLine marks a free slot
	vals []V
	used int
	mask uint64
}

const emptyLine = ^uint64(0)

// Init empties the map and sizes it so that n keys fill at most a
// quarter of its slots.
func (m *LineMap[V]) Init(n int) {
	size := 16
	for size < 4*n {
		size <<= 1
	}
	m.keys = make([]uint64, size)
	m.vals = make([]V, size)
	m.mask = uint64(size - 1)
	m.used = 0
	for i := range m.keys {
		m.keys[i] = emptyLine
	}
}

// Len returns the number of keys in the map.
func (m *LineMap[V]) Len() int { return m.used }

// lineHash spreads line numbers (low-entropy, often sequential) across
// slots: Fibonacci hashing folded so the low bits see the high ones.
func lineHash(key uint64) uint64 {
	key *= 0x9e3779b97f4a7c15
	return key ^ (key >> 29)
}

// Get returns key's value and whether key is present.
func (m *LineMap[V]) Get(key uint64) (v V, ok bool) {
	if m.used == 0 {
		return v, false
	}
	for i := lineHash(key) & m.mask; ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			return m.vals[i], true
		case emptyLine:
			return v, false
		}
	}
}

// Put sets key's value, inserting key if absent. The table doubles when
// it would become half full.
func (m *LineMap[V]) Put(key uint64, v V) {
	if 2*(m.used+1) > len(m.keys) {
		m.grow()
	}
	for i := lineHash(key) & m.mask; ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			m.vals[i] = v
			return
		case emptyLine:
			m.keys[i], m.vals[i] = key, v
			m.used++
			return
		}
	}
}

func (m *LineMap[V]) grow() {
	oldKeys, oldVals := m.keys, m.vals
	m.Init(len(oldKeys) / 2) // twice the old slot count (16 when empty)
	for i, k := range oldKeys {
		if k != emptyLine {
			m.Put(k, oldVals[i])
		}
	}
}

// Delete removes key, returning its value and whether it was present.
func (m *LineMap[V]) Delete(key uint64) (v V, ok bool) {
	if m.used == 0 {
		return v, false
	}
	for i := lineHash(key) & m.mask; ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case key:
			v = m.vals[i]
			m.deleteAt(i)
			return v, true
		case emptyLine:
			return v, false
		}
	}
}

// deleteAt empties slot i and backward-shifts the following cluster so
// every remaining key stays reachable from its home slot.
func (m *LineMap[V]) deleteAt(i uint64) {
	var zero V
	m.keys[i], m.vals[i] = emptyLine, zero
	m.used--
	for j := (i + 1) & m.mask; m.keys[j] != emptyLine; j = (j + 1) & m.mask {
		home := lineHash(m.keys[j]) & m.mask
		// Shift back if j's key cannot be reached from its home slot once
		// slot i is empty (i.e. i lies within [home, j] on the ring).
		if (j-home)&m.mask >= (j-i)&m.mask {
			m.keys[i], m.vals[i] = m.keys[j], m.vals[j]
			m.keys[j], m.vals[j] = emptyLine, zero
			i = j
		}
	}
}
