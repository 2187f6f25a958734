package sim

import (
	"fmt"
	"unsafe"
)

// Snapshot support for the engine and the statistics registry. A
// snapshot is only meaningful at a quiescence point — after Run() has
// drained the event queue — because pending continuations cannot be
// captured; both Save and Load enforce that.

// Clock is the engine's captured time state: the current cycle plus the
// event sequence counter (the same-cycle FIFO tie-break). Restoring
// both makes a forked engine schedule events in exactly the order the
// parent would have, so forked runs are bit-identical to cold runs.
type Clock struct {
	Now Cycle
	Seq uint64
}

// SaveClock captures the engine's clock. It panics if events are still
// pending: a snapshot mid-flight would silently drop continuations.
func (e *Engine) SaveClock() Clock {
	if e.pending != 0 {
		panic(fmt.Sprintf("sim: SaveClock with %d pending events", e.pending))
	}
	return Clock{Now: e.now, Seq: e.seq}
}

// LoadClock restores a captured clock onto a drained engine (typically
// a freshly constructed one). Series attached afterwards align their
// epochs against the restored cycle, exactly as they would on the
// original engine.
func (e *Engine) LoadClock(c Clock) {
	if e.pending != 0 {
		panic(fmt.Sprintf("sim: LoadClock with %d pending events", e.pending))
	}
	e.now = c.Now
	e.seq = c.Seq
	e.nextValid = false
}

// StatsSnapshot is an immutable capture of a Stats registry: counter
// values plus deep-copied histograms.
type StatsSnapshot struct {
	Counters map[string]uint64
	Hists    map[string]*Histogram
}

// Bytes returns the bytes the capture holds, counting each counter and
// histogram at its name, value and map slot.
func (snap *StatsSnapshot) Bytes() int {
	b := int(unsafe.Sizeof(*snap))
	for name := range snap.Counters {
		b += 24 + len(name)
	}
	for name := range snap.Hists {
		b += 24 + len(name) + int(unsafe.Sizeof(Histogram{}))
	}
	return b
}

// Capture deep-copies the registry's current state.
func (s *Stats) Capture() *StatsSnapshot {
	snap := &StatsSnapshot{
		Counters: make(map[string]uint64, len(s.counters)),
		Hists:    make(map[string]*Histogram, len(s.hists)),
	}
	for name, p := range s.counters {
		snap.Counters[name] = *p
	}
	for name, h := range s.hists {
		c := *h
		snap.Hists[name] = &c
	}
	return snap
}

// Restore overwrites the registry with the captured state. Counter and
// histogram handles already held by components stay valid: restore
// writes through the existing storage instead of replacing it, creating
// entries only for names the registry has not seen yet. Counters and
// histograms present in the registry but absent from the snapshot are
// zeroed (they were implicitly zero when the snapshot was taken).
func (s *Stats) Restore(snap *StatsSnapshot) {
	for name, p := range s.counters {
		if _, ok := snap.Counters[name]; !ok {
			*p = 0
		}
	}
	for name, v := range snap.Counters {
		*s.Counter(name) = v
	}
	for name, h := range s.hists {
		if _, ok := snap.Hists[name]; !ok {
			h.Reset()
		}
	}
	for name, sh := range snap.Hists {
		h := s.Histogram(name)
		h.Reset()
		h.Merge(sh)
	}
}
