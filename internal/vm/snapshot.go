package vm

import (
	"unsafe"

	"repro/internal/arch"
)

// Snapshot support: the manager's process table (with deep-copied page
// tables), frame share counts and PID allocator are captured by value.
// Frame contents are covered by the mem package's copy-on-write
// snapshot; only the OS bookkeeping lives here.

func clonePTNode(n *ptNode) *ptNode {
	c := &ptNode{}
	if n.ptes != nil {
		c.ptes = append([]PTE(nil), n.ptes...)
	}
	for i, child := range n.children {
		if child != nil {
			c.children[i] = clonePTNode(child)
		}
	}
	return c
}

// Clone deep-copies the page table.
func (pt *PageTable) Clone() *PageTable {
	c := &PageTable{mapped: pt.mapped}
	if pt.root.ptes != nil {
		c.root.ptes = append([]PTE(nil), pt.root.ptes...)
	}
	for i, child := range pt.root.children {
		if child != nil {
			c.root.children[i] = clonePTNode(child)
		}
	}
	return c
}

func (n *ptNode) bytes() int {
	b := int(unsafe.Sizeof(*n)) + len(n.ptes)*int(unsafe.Sizeof(PTE{}))
	for _, child := range n.children {
		if child != nil {
			b += child.bytes()
		}
	}
	return b
}

// Snapshot is an immutable capture of a Manager's OS state.
type Snapshot struct {
	procs   map[arch.PID]*PageTable
	refs    map[arch.PPN]int
	nextPID arch.PID
}

// Bytes returns the bytes the capture holds: every page table's nodes
// plus the share counts (counted at their keys and values).
func (s *Snapshot) Bytes() int {
	b := int(unsafe.Sizeof(*s)) + 16*len(s.refs)
	for _, table := range s.procs {
		b += table.root.bytes()
	}
	return b
}

// Snapshot captures the manager (page tables deep-copied).
func (mgr *Manager) Snapshot() *Snapshot {
	s := &Snapshot{
		procs:   make(map[arch.PID]*PageTable, len(mgr.procs)),
		refs:    make(map[arch.PPN]int, len(mgr.refs)),
		nextPID: mgr.nextPID,
	}
	for pid, p := range mgr.procs {
		s.procs[pid] = p.Table.Clone()
	}
	for k, v := range mgr.refs {
		s.refs[k] = v
	}
	return s
}

// Restore loads the captured OS state into this manager (typically a
// fresh one wired to a forked Memory), deep-copying the snapshot's page
// tables so concurrent forks stay independent.
func (mgr *Manager) Restore(s *Snapshot) {
	mgr.procs = make(map[arch.PID]*Process, len(s.procs))
	for pid, table := range s.procs {
		mgr.procs[pid] = &Process{PID: pid, Table: table.Clone()}
	}
	mgr.refs = make(map[arch.PPN]int, len(s.refs))
	for k, v := range s.refs {
		mgr.refs[k] = v
	}
	mgr.nextPID = s.nextPID
}
