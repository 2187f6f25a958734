// Package sim provides the discrete-event simulation engine and the
// statistics registry used by every timed component in the system. The
// engine keeps a calendar queue of (cycle, sequence, continuation) events
// and advances the clock to the next event; components express latency by
// scheduling continuations.
//
// The scheduler is a bucketed calendar queue: events within a fixed
// window of the current cycle land in a ring of per-cycle buckets
// (O(1) enqueue/dequeue, FIFO within a cycle), events beyond the window
// go to a sorted overflow heap and migrate into the ring as the clock
// advances. Event nodes are recycled through a free list, so steady-state
// Schedule/Step performs zero heap allocations.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in CPU cycles.
type Cycle uint64

// ArgEvent is a callback taking a packed uint64 argument. Components
// pre-bind one ArgEvent per completion type at construction and pass the
// varying state (an address, a slab index) through the argument, so
// scheduling a continuation allocates nothing.
type ArgEvent func(arg uint64)

// Cont is a pre-bound continuation: an ArgEvent plus its packed
// argument. The zero value is a no-op. Cont is a small value type —
// passing or storing one never allocates; the allocation cost (if any)
// was paid when the underlying func value was created.
type Cont struct {
	fn  ArgEvent
	arg uint64
}

// Bind packs a pre-bound ArgEvent and its argument into a continuation.
func Bind(fn ArgEvent, arg uint64) Cont { return Cont{fn: fn, arg: arg} }

// Valid reports whether invoking the continuation runs any code.
func (c Cont) Valid() bool { return c.fn != nil }

// Invoke runs the continuation (no-op for the zero value).
func (c Cont) Invoke() {
	if c.fn != nil {
		c.fn(c.arg)
	}
}

// node is one queued event. Nodes live either in a calendar bucket (next
// links the bucket's FIFO chain) or on the free list.
type node struct {
	at   Cycle
	seq  uint64 // tie-break so same-cycle events run in schedule order
	c    Cont
	next *node
}

const (
	// windowSize is the calendar span in cycles: events scheduled fewer
	// than windowSize cycles ahead go straight to a per-cycle bucket;
	// farther events wait in the overflow heap. 4096 covers every fixed
	// latency in the simulated system (the largest, a conventional TLB
	// shootdown, is 4000 cycles), so overflow traffic is rare.
	windowSize = 4096
	windowMask = windowSize - 1
	occWords   = windowSize / 64
)

// bucket is a FIFO chain of events that share one cycle. Within the
// active window each ring slot holds at most one distinct cycle, so
// append-at-tail preserves global (cycle, seq) order.
type bucket struct {
	head, tail *node
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now Cycle
	seq uint64

	buckets   [windowSize]bucket
	occ       [occWords]uint64 // occupancy bitmap over buckets
	nearCount int              // events currently in buckets
	overflow  []*node          // min-heap on (at, seq): events ≥ now+windowSize
	free      *node            // recycled event nodes
	pending   int

	// Memoised result of NextCycle; invalidated by a pop that empties
	// its bucket, kept exact by Schedule (an earlier event simply lowers
	// it).
	nextAt    Cycle
	nextValid bool

	Stats Stats

	// Trace, when non-nil, receives typed simulator events from every
	// component wired to this engine (see TraceLog). Nil disables tracing.
	Trace *TraceLog

	series []*Series
}

// NewEngine returns an engine with time at cycle zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

func (e *Engine) alloc() *node {
	n := e.free
	if n == nil {
		return new(node)
	}
	e.free = n.next
	n.next = nil
	return n
}

func (e *Engine) recycle(n *node) {
	n.c = Cont{}
	n.next = e.free
	e.free = n
}

// enqueue places a node in its calendar bucket. The caller guarantees
// n.at < now+windowSize and that nodes for any one cycle arrive in seq
// order (Schedule order, or overflow-heap pop order during migration).
func (e *Engine) enqueue(n *node) {
	b := &e.buckets[n.at&windowMask]
	if b.tail == nil {
		b.head = n
		idx := n.at & windowMask
		e.occ[idx>>6] |= 1 << (idx & 63)
	} else {
		b.tail.next = n
	}
	b.tail = n
	e.nearCount++
}

// Schedule runs the continuation after delay cycles. A delay of zero
// runs it later in the current cycle, after all previously scheduled
// current-cycle events.
func (e *Engine) Schedule(delay Cycle, c Cont) {
	at := e.now + delay
	e.seq++
	n := e.alloc()
	n.at, n.seq, n.c = at, e.seq, c
	if delay < windowSize {
		e.enqueue(n)
	} else {
		e.overflowPush(n)
	}
	e.pending++
	if e.nextValid && at < e.nextAt {
		e.nextAt = at
	}
}

// At runs the continuation at the given absolute cycle, which must not
// be in the past.
func (e *Engine) At(cycle Cycle, c Cont) {
	if cycle < e.now {
		panic("sim: scheduling event in the past")
	}
	e.Schedule(cycle-e.now, c)
}

// Pending reports the number of events not yet run.
func (e *Engine) Pending() int { return e.pending }

// NextCycle reports the cycle of the earliest pending event without
// running it or advancing the clock. ok is false when no events remain.
func (e *Engine) NextCycle() (cycle Cycle, ok bool) {
	if e.pending == 0 {
		return 0, false
	}
	if e.nextValid {
		return e.nextAt, true
	}
	if e.nearCount > 0 {
		e.nextAt = e.scanFrom(e.now)
	} else {
		e.nextAt = e.overflow[0].at
	}
	e.nextValid = true
	return e.nextAt, true
}

// scanFrom finds the cycle of the first occupied bucket at or after
// `from`, using the occupancy bitmap (64 buckets per probe). The caller
// guarantees nearCount > 0, so the scan terminates within one window.
func (e *Engine) scanFrom(from Cycle) Cycle {
	idx := from & windowMask
	word := idx >> 6
	// Mask off bits below the starting bucket in the first word.
	w := e.occ[word] &^ (1<<(idx&63) - 1)
	for i := Cycle(0); ; i++ {
		if w != 0 {
			bit := Cycle(bits.TrailingZeros64(w))
			bucketIdx := word<<6 | bit
			// Distance from `from` to the bucket, wrapping the ring.
			return from + ((bucketIdx - idx) & windowMask)
		}
		if i >= occWords {
			panic("sim: occupancy bitmap inconsistent with nearCount")
		}
		word = (word + 1) & (occWords - 1)
		w = e.occ[word]
	}
}

// advanceTo moves the clock to `at` and migrates overflow events that
// the new window now covers into their calendar buckets. Heap pops come
// out in (at, seq) order, so same-cycle migrants keep FIFO order.
func (e *Engine) advanceTo(at Cycle) {
	if at == e.now {
		return
	}
	e.now = at
	limit := at + windowSize
	for len(e.overflow) > 0 && e.overflow[0].at < limit {
		e.enqueue(e.overflowPop())
	}
}

// pop removes and returns the earliest event, advancing the clock to its
// cycle. The caller guarantees pending > 0.
func (e *Engine) pop() *node {
	at, _ := e.NextCycle()
	e.advanceTo(at)
	idx := at & windowMask
	b := &e.buckets[idx]
	n := b.head
	b.head = n.next
	if b.head == nil {
		b.tail = nil
		e.occ[idx>>6] &^= 1 << (idx & 63)
		e.nextValid = false
	}
	// Otherwise the bucket's remaining events share cycle `at` and
	// nothing can be scheduled in the past, so the memo stays exact.
	n.next = nil
	e.nearCount--
	e.pending--
	return n
}

// Attach registers a series for sampling as the clock advances. The
// series' epoch boundaries are aligned to absolute multiples of its epoch
// length, starting after the current cycle.
func (e *Engine) Attach(s *Series) {
	s.alignTo(e.now)
	s.engineIdx = len(e.series)
	e.series = append(e.series, s)
}

// CloseSeries flushes the series' final partial epoch at the current
// cycle and detaches it from the engine in O(1) (the detached slot is
// backfilled with the last attached series).
func (e *Engine) CloseSeries(s *Series) {
	s.Finish(e.now, &e.Stats)
	i := s.engineIdx
	if i < 0 || i >= len(e.series) || e.series[i] != s {
		return // not attached (Finish still ran, matching historic behaviour)
	}
	last := len(e.series) - 1
	e.series[i] = e.series[last]
	e.series[i].engineIdx = i
	e.series[last] = nil
	e.series = e.series[:last]
	s.engineIdx = -1
}

// Step runs the next event, advancing the clock to its cycle. It reports
// whether an event was run.
func (e *Engine) Step() bool {
	if e.pending == 0 {
		return false
	}
	n := e.pop()
	if len(e.series) > 0 {
		for _, s := range e.series {
			s.advance(e.now, &e.Stats)
		}
	}
	c := n.c
	e.recycle(n)
	c.Invoke()
	return true
}

// Run executes events until the queue drains and returns the final cycle.
func (e *Engine) Run() Cycle {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with cycle ≤ limit. Events scheduled beyond the
// limit remain queued; the clock is left at the last executed event (or
// unchanged if none ran).
func (e *Engine) RunUntil(limit Cycle) {
	for {
		at, ok := e.NextCycle()
		if !ok || at > limit {
			return
		}
		e.Step()
	}
}

// --- overflow min-heap on (at, seq) --------------------------------------
//
// A hand-rolled heap over []*node: container/heap would box every push
// and pop through interface{}, defeating the free list.

func overflowLess(a, b *node) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) overflowPush(n *node) {
	h := append(e.overflow, n)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !overflowLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	e.overflow = h
}

func (e *Engine) overflowPop() *node {
	h := e.overflow
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	e.overflow = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && overflowLess(h[l], h[small]) {
			small = l
		}
		if r < len(h) && overflowLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
