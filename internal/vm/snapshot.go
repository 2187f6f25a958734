package vm

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: the manager's process table, frame share counts and
// PID allocator are captured by value. Page tables are shared node for
// node with the capture and copied on first write (PageTable.Share), so
// capture and restore copy no table. Frame contents are covered by the
// mem package's copy-on-write snapshot; only the OS bookkeeping lives
// here.

// Snapshot is an immutable capture of a Manager's OS state.
type Snapshot struct {
	procs   map[arch.PID]PageTable
	refs    map[arch.PPN]int
	nextPID arch.PID
}

// Bytes returns the bytes the capture holds: every page table's nodes
// plus the share counts (counted at their keys and values).
func (s *Snapshot) Bytes() int {
	b := int(unsafe.Sizeof(*s)) + 16*len(s.refs)
	for _, table := range s.procs {
		b += table.tree.Bytes()
	}
	return b
}

// Snapshot captures the manager. Its page tables become shared with the
// capture, so the manager copies a node before its next write through
// it.
func (mgr *Manager) Snapshot() *Snapshot {
	s := &Snapshot{
		procs:   make(map[arch.PID]PageTable, len(mgr.procs)),
		refs:    make(map[arch.PPN]int, len(mgr.refs)),
		nextPID: mgr.nextPID,
	}
	for pid, p := range mgr.procs {
		s.procs[pid] = p.Table.Share()
	}
	for k, v := range mgr.refs {
		s.refs[k] = v
	}
	return s
}

// Restore loads the captured OS state into this manager (typically a
// fresh one wired to a forked Memory). Each process gets a copy of the
// captured table, which shares the capture's nodes and copies one before
// writing it, so concurrent forks stay independent and the capture is
// never written.
func (mgr *Manager) Restore(s *Snapshot) {
	mgr.procs = make(map[arch.PID]*Process, len(s.procs))
	for pid, table := range s.procs {
		mgr.procs[pid] = &Process{PID: pid, Table: &table}
	}
	mgr.refs = make(map[arch.PPN]int, len(s.refs))
	for k, v := range s.refs {
		mgr.refs[k] = v
	}
	mgr.nextPID = s.nextPID
}
