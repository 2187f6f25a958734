package mem

// Snapshot/fork support: a Memory can be captured into an immutable
// Snapshot and any number of Memories forked from it. Forks share the
// parent's frame arrays read-only and copy a 4 KB frame only on the
// first materialising write (overlay-style dirty tracking applied to
// the simulator itself); BytesCopied reports how much each fork ended
// up privatising. Capturing a snapshot also marks the parent's own
// frames copy-on-write, so the snapshot stays immutable even if the
// parent keeps running.

import "repro/internal/arch"

// Snapshot is an immutable capture of a Memory's full state. It is safe
// to fork from one snapshot concurrently: the shared frame arrays are
// never written after capture.
type Snapshot struct {
	frames     []*[arch.PageSize]byte
	totalPages int
	nextFree   arch.PPN
	freeList   []arch.PPN
	allocated  []bool
	allocCount int
}

// TotalPages returns the captured capacity in frames.
func (s *Snapshot) TotalPages() int { return s.totalPages }

// markAllShared flags every materialised frame as snapshot-shared.
func (m *Memory) markAllShared() {
	if m.shared == nil {
		m.shared = make([]uint64, (m.totalPages+63)/64)
	}
	for ppn, f := range m.frames {
		if f != nil {
			m.shared[ppn>>6] |= 1 << (uint(ppn) & 63)
		}
	}
}

// Snapshot captures the memory. The parent's materialised frames become
// copy-on-write too, so later parent writes cannot leak into the
// snapshot (or into forks taken from it).
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		frames:     append([]*[arch.PageSize]byte(nil), m.frames...),
		totalPages: m.totalPages,
		nextFree:   m.nextFree,
		freeList:   append([]arch.PPN(nil), m.freeList...),
		allocated:  append([]bool(nil), m.allocated...),
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
		frames:     append([]*[arch.PageSize]byte(nil), s.frames...),
		totalPages: s.totalPages,
		nextFree:   s.nextFree,
		freeList:   append([]arch.PPN(nil), s.freeList...),
		allocated:  append([]bool(nil), s.allocated...),
		allocCount: s.allocCount,
	}
	m.markAllShared()
	return m
}

// BytesCopied returns the bytes privatised by copy-on-write
// materialisation since this Memory was forked (always 0 for a Memory
// that was never forked or snapshotted, or that has not written to a
// shared frame).
func (m *Memory) BytesCopied() uint64 { return m.bytesCopied }
