package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refEvent and refHeap form a reference scheduler: a plain binary heap
// ordered by (cycle, insertion sequence), the specification the
// calendar queue must match event for event.
type refEvent struct {
	at  Cycle
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSched mirrors the Engine's Schedule/At surface over the heap.
type refSched struct {
	now  Cycle
	seq  uint64
	heap refHeap
}

func (r *refSched) schedule(delay Cycle, id int) {
	heap.Push(&r.heap, refEvent{at: r.now + delay, seq: r.seq, id: id})
	r.seq++
}

func (r *refSched) at(cycle Cycle, id int) {
	heap.Push(&r.heap, refEvent{at: cycle, seq: r.seq, id: id})
	r.seq++
}

func (r *refSched) pop() (refEvent, bool) {
	if len(r.heap) == 0 {
		return refEvent{}, false
	}
	ev := heap.Pop(&r.heap).(refEvent)
	r.now = ev.at
	return ev, true
}

// TestCalendarMatchesReferenceHeap drives the calendar-queue engine and
// the reference heap with an identical randomized storm of interleaved
// Schedule/At calls — same-cycle delays, short in-window delays,
// bucket-wrap distances, and beyond-window delays that ride the
// overflow heap — and requires the two to execute events in exactly the
// same order. Executed events reschedule more work, so migration from
// the overflow heap back into buckets is exercised at many phases.
func TestCalendarMatchesReferenceHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(0xCA1E))
	delays := []Cycle{
		0, 0, 1, 2, 3, 7, 63, 64, 100, 1023,
		windowSize - 1, windowSize, windowSize + 1,
		2*windowSize + 17, 10 * windowSize,
	}

	e := NewEngine()
	ref := &refSched{}
	var got []int

	nextID := 0
	var spawn func(depth int) // schedules one event pair in both schedulers
	spawn = func(depth int) {
		id := nextID
		nextID++
		body := func() {
			got = append(got, id)
			// Half the executed events reschedule follow-up work, so the
			// storm interleaves scheduling with execution at many cycles.
			if depth > 0 && rng.Intn(2) == 0 {
				spawn(depth - 1)
			}
		}
		if rng.Intn(4) == 0 {
			// Absolute-time insertion.
			target := e.Now() + delays[rng.Intn(len(delays))]
			e.At(target, ev(body))
			ref.at(target, id)
		} else {
			d := delays[rng.Intn(len(delays))]
			e.Schedule(d, ev(body))
			ref.schedule(d, id)
		}
	}

	for i := 0; i < 2000; i++ {
		spawn(3)
	}
	for {
		// Pop the reference first so ref.now is current when the engine's
		// event body reschedules into both schedulers.
		rev, rok := ref.pop()
		ok := e.Step()
		if ok != rok {
			t.Fatalf("schedulers disagree on drain: engine=%v ref=%v after %d events", ok, rok, len(got))
		}
		if !ok {
			break
		}
		if e.Now() != rev.at {
			t.Fatalf("event %d: engine at cycle %d, reference at %d", len(got), e.Now(), rev.at)
		}
		if got[len(got)-1] != rev.id {
			t.Fatalf("event %d: engine ran id %d, reference expected %d", len(got), got[len(got)-1], rev.id)
		}
	}
	if nextID != len(got) {
		t.Fatalf("executed %d events, scheduled %d", len(got), nextID)
	}
}
