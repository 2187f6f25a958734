package dram

import (
	"unsafe"

	"repro/internal/sim"
)

// Snapshot support: at a quiescence point the controller's read queue
// and write buffer have fully drained (issue self-reschedules while any
// request is pooled), so the only state that shapes future timing is
// the per-bank open rows / ready times and the data-bus horizon.

// Snapshot is an immutable capture of a drained controller.
type Snapshot struct {
	banks     []bank
	busFreeAt sim.Cycle
}

// Bytes returns the bytes the capture holds.
func (s *Snapshot) Bytes() int {
	return int(unsafe.Sizeof(*s)) + len(s.banks)*int(unsafe.Sizeof(bank{}))
}

// Snapshot captures the bank and bus state. It panics if requests are
// still queued — snapshots are only taken after the engine drains.
func (c *Controller) Snapshot() *Snapshot {
	if len(c.readQ) != 0 || len(c.writeBuf) != 0 || c.draining {
		panic("dram: snapshot with queued requests")
	}
	return &Snapshot{
		banks:     append([]bank(nil), c.banks...),
		busFreeAt: c.busFreeAt,
	}
}

// Restore loads the captured bank/bus state into this controller, which
// must have the same bank count.
func (c *Controller) Restore(s *Snapshot) {
	if len(s.banks) != len(c.banks) {
		panic("dram: restore bank-count mismatch")
	}
	copy(c.banks, s.banks)
	c.busFreeAt = s.busFreeAt
}
