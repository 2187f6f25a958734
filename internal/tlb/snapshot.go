package tlb

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: the TLB's structural state (both levels' valid ways
// and replacement clocks) can be captured and restored onto a freshly
// constructed TLB of the same configuration. Counters and histograms
// live in the shared sim.Stats registry and are restored there, not
// here.
//
// A capture holds only the valid ways. invalidate and flushPID zero a
// way, and a new level starts zeroed, so every empty way is all-zero and
// Restore recreates it as such.

// liveWay is a valid way as captured: its valid flag is implied.
type liveWay struct {
	key   key
	entry Entry
	stamp uint64
}

// levelSnapshot is one level's captured valid ways and clock.
type levelSnapshot struct {
	entries int         // the level's way count
	valid   arch.Bitmap // set-major indices of the valid ways
	ways    []liveWay   // the valid ways, in index order
	clock   uint64
}

func (s *levelSnapshot) bytes() int {
	return int(unsafe.Sizeof(*s)) + s.valid.Bytes() + len(s.ways)*int(unsafe.Sizeof(liveWay{}))
}

// way returns the way at set-major index i.
func (l *level) way(i int) *way {
	ways := len(l.sets[0])
	return &l.sets[i/ways][i%ways]
}

func (l *level) snapshot() levelSnapshot {
	entries := len(l.sets) * len(l.sets[0])
	valid := arch.NewBitmap(entries)
	for i := 0; i < entries; i++ {
		if l.way(i).valid {
			valid.Set(i)
		}
	}
	ways := make([]liveWay, 0, valid.Count())
	valid.Each(func(i int) {
		w := l.way(i)
		ways = append(ways, liveWay{key: w.key, entry: w.entry, stamp: w.stamp})
	})
	return levelSnapshot{entries: entries, valid: valid, ways: ways, clock: l.clock}
}

func (l *level) restore(s levelSnapshot) {
	for _, set := range l.sets {
		clear(set)
	}
	k := 0
	s.valid.Each(func(i int) {
		w := s.ways[k]
		k++
		*l.way(i) = way{valid: true, key: w.key, entry: w.entry, stamp: w.stamp}
	})
	l.clock = s.clock
}

// Snapshot is an immutable capture of a TLB's cached translations.
type Snapshot struct {
	l1, l2 levelSnapshot
}

// Bytes returns the bytes the capture holds.
func (s *Snapshot) Bytes() int { return s.l1.bytes() + s.l2.bytes() }

// Snapshot captures both levels.
func (t *TLB) Snapshot() *Snapshot {
	return &Snapshot{l1: t.l1.snapshot(), l2: t.l2.snapshot()}
}

// Restore loads the captured translations into this TLB, which must
// have the same geometry as the one that produced the snapshot.
func (t *TLB) Restore(s *Snapshot) {
	if s.l1.entries != t.cfg.L1Entries || s.l2.entries != t.cfg.L2Entries {
		panic("tlb: restore geometry mismatch")
	}
	t.l1.restore(s.l1)
	t.l2.restore(s.l2)
}
