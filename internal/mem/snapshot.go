package mem

// Snapshot/fork support: a Memory can be captured into an immutable
// Snapshot and any number of Memories forked from it. Forks share the
// parent's frame arrays read-only and copy a 4 KB frame only on the
// first materialising write (overlay-style dirty tracking applied to
// the simulator itself); BytesCopied reports how much each fork ended
// up privatising. Capturing a snapshot also marks the parent's own
// frames copy-on-write, so the snapshot stays immutable even if the
// parent keeps running. A capture holds only the materialised frames
// and the allocation bitmap, so its size follows the live tables.

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot is an immutable capture of a Memory's full state. It is safe
// to fork from one snapshot concurrently: the shared frame arrays are
// never written after capture.
type Snapshot struct {
	present    arch.Bitmap            // the materialised frames' ppns
	frames     []*[arch.PageSize]byte // the materialised frames, in ppn order
	allocated  arch.Bitmap
	totalPages int
	nextFree   arch.PPN
	freeList   []arch.PPN
	allocCount int
}

// TotalPages returns the captured capacity in frames.
func (s *Snapshot) TotalPages() int { return s.totalPages }

// Bytes returns the bytes the capture holds, counting each materialised
// frame's contents (shared copy-on-write with the parent and forks).
func (s *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) + s.present.Bytes() + len(s.frames)*(8+arch.PageSize) +
		s.allocated.Bytes() + 8*len(s.freeList)
}

// markAllShared flags every materialised frame as snapshot-shared.
func (m *Memory) markAllShared() {
	m.shared = m.shared.Grow(len(m.frames))
	for ppn, f := range m.frames {
		if f != nil {
			m.shared.Set(ppn)
		}
	}
}

// Snapshot captures the memory. The parent's materialised frames become
// copy-on-write too, so later parent writes cannot leak into the
// snapshot (or into forks taken from it).
func (m *Memory) Snapshot() *Snapshot {
	present := arch.NewBitmap(len(m.frames))
	for ppn, f := range m.frames {
		if f != nil {
			present.Set(ppn)
		}
	}
	s := &Snapshot{
		present:    present,
		frames:     arch.Gather(present, m.frames),
		allocated:  append(arch.Bitmap(nil), m.allocated...),
		totalPages: m.totalPages,
		nextFree:   m.nextFree,
		freeList:   append([]arch.PPN(nil), m.freeList...),
		allocCount: m.allocCount,
	}
	m.markAllShared()
	return s
}

// NewFromSnapshot forks a Memory from the snapshot: identical contents
// and allocator state, with every materialised frame shared
// copy-on-write. The fork's BytesCopied starts at zero.
func NewFromSnapshot(s *Snapshot) *Memory {
	m := &Memory{
		totalPages: s.totalPages,
		nextFree:   s.nextFree,
		freeList:   append([]arch.PPN(nil), s.freeList...),
		allocated:  append(arch.Bitmap(nil), s.allocated...),
		allocCount: s.allocCount,
	}
	k := 0
	s.present.Each(func(ppn int) {
		m.cover(ppn)
		m.frames[ppn] = s.frames[k]
		k++
	})
	m.markAllShared()
	return m
}

// BytesCopied returns the bytes privatised by copy-on-write
// materialisation since this Memory was forked (always 0 for a Memory
// that was never forked or snapshotted, or that has not written to a
// shared frame).
func (m *Memory) BytesCopied() uint64 { return m.bytesCopied }
