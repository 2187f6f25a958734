package cpu

import "unsafe"

// Snapshot support: between runs the core is quiescent — no tick event
// pending, every occupied window slot completed (in-flight completions
// drain with the engine) — so its state is the window ring, the
// dispatch cursors, and the trace position. The trace itself is not
// captured (workload generators wrap unexportable RNG state); callers
// rebuild one and replay Fetched() records to reposition it.

// Snapshot is an immutable capture of an idle core.
type Snapshot struct {
	window     [WindowSize]slot
	head, tail uint64
	fetched    uint64
}

// Bytes returns the bytes the capture holds.
func (s *Snapshot) Bytes() int { return int(unsafe.Sizeof(*s)) }

// Snapshot captures the window and cursors. It panics if the core is
// running or any slot has an operation in flight — snapshots are only
// taken after the engine drains.
func (c *Core) Snapshot() *Snapshot {
	if c.running || c.ticking {
		panic("cpu: snapshot of a running core")
	}
	for i := c.head; i != c.tail; i++ {
		s := c.window[i%WindowSize]
		if s.outstanding || !s.done {
			panic("cpu: snapshot with incomplete window slot")
		}
	}
	return &Snapshot{window: c.window, head: c.head, tail: c.tail, fetched: c.fetched}
}

// Restore loads the captured window state into this core, which must
// have been built with a trace already repositioned past s's fetched
// count.
func (c *Core) Restore(s *Snapshot) {
	if c.running || c.ticking {
		panic("cpu: restore into a running core")
	}
	c.window = s.window
	c.head, c.tail = s.head, s.tail
	c.fetched = s.fetched
}
