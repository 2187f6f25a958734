package oms

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: the store's bookkeeping is flat arrays (the unit
// table carries the free lists and class tags intrusively), so a capture
// is a value copy of those arrays plus the footprint totals — free-list
// order is preserved exactly (AllocSegment pops the tail, so order is
// timing-relevant). Segment contents and metadata lines live in main
// memory and are covered by the mem package's copy-on-write snapshot.
// Only unlimited stores are captured: the framework, the one caller,
// never arms a frame budget, so the cooling queue and spill tier are
// always empty here.

// Snapshot is an immutable capture of a Store's bookkeeping.
type Snapshot struct {
	frames []arch.PPN
	units  []unit

	freeHead [NumClasses]int32
	freeTail [NumClasses]int32

	owned    int
	inUse    int
	liveSegs int
}

// Bytes returns the bytes the capture holds.
func (snap *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*snap)) + 8*len(snap.frames) + len(snap.units)*int(unsafe.Sizeof(unit{}))
}

// Snapshot captures the store. It panics on a store with a frame budget
// (SetCapacity): its cooling queue and spill tier are not captured.
func (s *Store) Snapshot() *Snapshot {
	if s.capacity != 0 {
		panic("oms: snapshot of a capacity-armed store")
	}
	return &Snapshot{
		frames:   append([]arch.PPN(nil), s.frames...),
		units:    append([]unit(nil), s.units...),
		freeHead: s.freeHead,
		freeTail: s.freeTail,
		owned:    s.owned,
		inUse:    s.inUse,
		liveSegs: s.liveSegs,
	}
}

// Restore loads the captured bookkeeping into this store (typically a
// freshly built one wired to a forked Memory). The trace attachment is
// not part of the capture — the owner re-wires it.
func (s *Store) Restore(snap *Snapshot) {
	s.frames = append(s.frames[:0], snap.frames...)
	s.units = append(s.units[:0], snap.units...)
	for i := range s.frameSlot {
		s.frameSlot[i] = 0
	}
	for slot, ppn := range s.frames {
		s.frameSlot[ppn] = int32(slot) + 1
	}
	s.freeHead = snap.freeHead
	s.freeTail = snap.freeTail
	s.owned = snap.owned
	s.inUse = snap.inUse
	s.liveSegs = snap.liveSegs
}
