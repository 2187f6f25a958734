package oms

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
)

// segTracker is the test-side reference holder: it plays the OMT's role,
// keeping one swizzled reference per live segment and letting the evict
// hook unswizzle them to cold references.
type segTracker struct {
	refs  map[uint64]arch.PhysAddr
	class map[uint64]int
	next  uint64
}

func newTracker(s *Store) *segTracker {
	tr := &segTracker{
		refs:  make(map[uint64]arch.PhysAddr),
		class: make(map[uint64]int),
		next:  1, // owner 0 means "unowned" to the store
	}
	s.SetEvictHook(func(owner uint64, cold arch.PhysAddr) {
		if _, ok := tr.refs[owner]; !ok {
			panic(fmt.Sprintf("evict hook for unknown owner %d", owner))
		}
		tr.refs[owner] = cold
	})
	return tr
}

func (tr *segTracker) add(s *Store, base arch.PhysAddr, class int) uint64 {
	owner := tr.next
	tr.next++
	tr.refs[owner] = base
	tr.class[owner] = class
	s.SetOwner(base, owner)
	return owner
}

// liveBytes sums the class bytes of every tracked live segment.
func (tr *segTracker) liveBytes() int {
	total := 0
	for owner := range tr.refs {
		total += ClassBytes(tr.class[owner])
	}
	return total
}

// checkConservation asserts the core residency property: resident bytes
// plus spilled bytes always equal the bytes of live segments.
func checkConservation(t *testing.T, s *Store, tr *segTracker) {
	t.Helper()
	if got, want := s.ResidentBytes()+s.SpilledBytes(), tr.liveBytes(); got != want {
		t.Fatalf("resident(%d) + spilled(%d) = %d bytes, want live %d",
			s.ResidentBytes(), s.SpilledBytes(), got, want)
	}
	if got, want := s.BytesInUse(), tr.liveBytes(); got != want {
		t.Fatalf("BytesInUse = %d, want %d", got, want)
	}
}

func newCapacityStore(t *testing.T, capFrames, memPages int) (*Store, *sim.Stats, *segTracker) {
	t.Helper()
	m := mem.New(memPages)
	var st sim.Stats
	s, err := New(m, &st, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracker(s)
	s.SetCapacity(capFrames, true)
	return s, &st, tr
}

// TestCoolingEviction drives the store past its frame budget and checks
// that the cooling queue spills segments, cold references resolve back
// to live data, and every counter moves the right way.
func TestCoolingEviction(t *testing.T) {
	s, st, tr := newCapacityStore(t, 4, 256)

	// 4 frames hold 4 top-class segments; allocating 8 must spill.
	owners := make([]uint64, 0, 8)
	for i := 0; i < 8; i++ {
		base, err := s.AllocSegment(NumClasses - 1)
		if err != nil {
			t.Fatal(err)
		}
		owners = append(owners, tr.add(s, base, NumClasses-1))
		checkConservation(t, s, tr)
	}
	if s.FramesOwned() > 4 {
		t.Fatalf("store grew to %d frames past capacity 4", s.FramesOwned())
	}
	if st.Get("oms.evictions") == 0 || st.Get("oms.spills") == 0 {
		t.Fatalf("no evictions/spills recorded: evictions=%d spills=%d",
			st.Get("oms.evictions"), st.Get("oms.spills"))
	}
	if s.SpilledSegments() == 0 {
		t.Fatal("no segments in the spill tier")
	}

	// Every owner's reference must still resolve — cold ones via refill.
	for _, owner := range owners {
		ref := tr.refs[owner]
		base, penalty, err := s.Resolve(ref)
		if err != nil {
			t.Fatalf("resolve owner %d: %v", owner, err)
		}
		if ref.IsCold() && penalty == 0 {
			t.Fatalf("cold resolve of owner %d charged no penalty", owner)
		}
		if !ref.IsCold() && penalty != 0 {
			t.Fatalf("resident resolve of owner %d charged %d cycles", owner, penalty)
		}
		tr.refs[owner] = base
		checkConservation(t, s, tr)
	}
	if st.Get("oms.refills") == 0 {
		t.Fatal("no refills recorded")
	}
	if st.Get("oms.spill_penalty_cycles") == 0 {
		t.Fatal("no spill penalty cycles recorded")
	}

	// Free everything — through whatever reference is current — and check
	// the store drains to zero.
	for _, owner := range owners {
		s.FreeSegment(tr.refs[owner])
		delete(tr.refs, owner)
		delete(tr.class, owner)
		checkConservation(t, s, tr)
	}
	if s.LiveSegments() != 0 || s.SpilledSegments() != 0 || s.BytesInUse() != 0 {
		t.Fatalf("store not empty after frees: live=%d spilled=%d bytes=%d",
			s.LiveSegments(), s.SpilledSegments(), s.BytesInUse())
	}
}

// TestSecondChance checks the clock behaviour: a segment whose reference
// bit is set survives one eviction sweep at the expense of an untouched
// one.
func TestSecondChance(t *testing.T) {
	s, st, tr := newCapacityStore(t, 3, 256)

	alloc := func() uint64 {
		t.Helper()
		base, err := s.AllocSegment(NumClasses - 1)
		if err != nil {
			t.Fatal(err)
		}
		return tr.add(s, base, NumClasses-1)
	}

	// Fill the 3-frame budget: queue [A, B, C], all reference bits set.
	a, b, c := alloc(), alloc(), alloc()

	// D forces a sweep: A, B, C each spend their bit rotating (second
	// chances), then A — back at the head, bit now clear — is spilled.
	// Queue: [B(clear), C(clear), D(set)].
	d := alloc()
	if !tr.refs[a].IsCold() {
		t.Fatal("A not spilled by the first sweep")
	}
	if tr.refs[b].IsCold() || tr.refs[c].IsCold() {
		t.Fatal("B/C spilled prematurely")
	}
	if st.Get("oms.second_chances") < 3 {
		t.Fatalf("second_chances = %d, want >= 3", st.Get("oms.second_chances"))
	}

	// Touch only B: queue [B(set), C(clear), D(set)]. The next sweep must
	// grant B its second chance and spill the untouched C instead.
	if _, _, err := s.Resolve(tr.refs[b]); err != nil {
		t.Fatal(err)
	}
	alloc()
	if !tr.refs[c].IsCold() {
		t.Fatal("untouched C was not evicted")
	}
	if tr.refs[b].IsCold() {
		t.Fatal("recently touched B was evicted despite its reference bit")
	}
	if tr.refs[d].IsCold() {
		t.Fatal("D spilled out of order")
	}
}

// TestSpillDataIntegrity writes a distinctive pattern into every slot of
// a segment, forces it through the spill tier, and checks the refilled
// image byte-for-byte (metadata line included: the slot mapping must
// survive the round trip).
func TestSpillDataIntegrity(t *testing.T) {
	s, _, tr := newCapacityStore(t, 1, 256)

	base, err := s.AllocSegment(1) // 512 B, 7 slots
	if err != nil {
		t.Fatal(err)
	}
	owner := tr.add(s, base, 1)
	lines := []int{3, 17, 40, 63}
	var buf [arch.LineSize]byte
	for _, line := range lines {
		addr, full := s.InsertLine(base, line)
		if full {
			t.Fatal("segment full")
		}
		for i := range buf {
			buf[i] = byte(line + i)
		}
		s.WriteLineData(addr, buf[:])
	}

	// Churn until the segment spills.
	for i := 0; i < 8 && !tr.refs[owner].IsCold(); i++ {
		b2, errAlloc := s.AllocSegment(NumClasses - 1)
		if errAlloc != nil {
			t.Fatal(errAlloc)
		}
		o2 := tr.add(s, b2, NumClasses-1)
		s.FreeSegment(tr.refs[o2])
		delete(tr.refs, o2)
		delete(tr.class, o2)
	}
	if !tr.refs[owner].IsCold() {
		t.Fatal("segment never spilled")
	}

	newBase, penalty, err := s.Resolve(tr.refs[owner])
	if err != nil {
		t.Fatal(err)
	}
	if penalty == 0 {
		t.Fatal("refill charged no penalty")
	}
	tr.refs[owner] = newBase
	for _, line := range lines {
		addr, ok := s.LocateLine(newBase, line)
		if !ok {
			t.Fatalf("line %d lost across the spill round trip", line)
		}
		s.ReadLineData(addr, buf[:])
		for i := range buf {
			if buf[i] != byte(line+i) {
				t.Fatalf("line %d byte %d = %#x, want %#x", line, i, buf[i], byte(line+i))
			}
		}
	}
}

// churnStep is one op of the randomized churn: allocate a random class,
// or free / resolve / line-insert on a random live segment.
func churnStep(t *testing.T, rng *rand.Rand, s *Store, tr *segTracker, owners *[]uint64) {
	t.Helper()
	switch op := rng.Intn(10); {
	case op < 4 || len(*owners) == 0: // alloc
		class := rng.Intn(NumClasses)
		base, err := s.AllocSegment(class)
		if err != nil {
			t.Fatal(err)
		}
		*owners = append(*owners, tr.add(s, base, class))
	case op < 7: // free a random segment through its current reference
		i := rng.Intn(len(*owners))
		owner := (*owners)[i]
		s.FreeSegment(tr.refs[owner])
		delete(tr.refs, owner)
		delete(tr.class, owner)
		(*owners)[i] = (*owners)[len(*owners)-1]
		*owners = (*owners)[:len(*owners)-1]
	default: // resolve + touch lines of a random segment
		owner := (*owners)[rng.Intn(len(*owners))]
		base, _, err := s.Resolve(tr.refs[owner])
		if err != nil {
			t.Fatal(err)
		}
		tr.refs[owner] = base
		if class := tr.class[owner]; class < NumClasses-1 {
			if addr, full := s.InsertLine(base, rng.Intn(arch.LinesPerPage)); !full {
				var b [arch.LineSize]byte
				s.WriteLineData(addr, b[:])
			}
		}
	}
}

// TestChurnConservation runs randomized alloc/free/resolve churn with
// and without a capacity and checks, after every op, the property that
// resident + spilled bytes equal live bytes — and at the end, that
// freeing everything coalesces the store back to whole frames.
func TestChurnConservation(t *testing.T) {
	for _, capFrames := range []int{0, 3, 8} {
		capFrames := capFrames
		t.Run(fmt.Sprintf("capacity=%d", capFrames), func(t *testing.T) {
			m := mem.New(1 << 10)
			var st sim.Stats
			s, err := New(m, &st, 0)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracker(s)
			if capFrames > 0 {
				s.SetCapacity(capFrames, true)
			}
			rng := rand.New(rand.NewSource(42))
			var owners []uint64
			for i := 0; i < 4000; i++ {
				churnStep(t, rng, s, tr, &owners)
				checkConservation(t, s, tr)
			}
			if capFrames > 0 && st.Get("oms.spills") == 0 {
				t.Fatal("capacity churn produced no spills")
			}
			// Drain and verify full coalescing: every owned frame must be
			// one free top-class segment again.
			for _, owner := range owners {
				s.FreeSegment(tr.refs[owner])
				delete(tr.refs, owner)
				delete(tr.class, owner)
				checkConservation(t, s, tr)
			}
			if s.BytesInUse() != 0 || s.LiveSegments() != 0 || s.SpilledSegments() != 0 {
				t.Fatalf("store not empty: bytes=%d live=%d spilled=%d",
					s.BytesInUse(), s.LiveSegments(), s.SpilledSegments())
			}
			free := 0
			for base := s.freeHead[NumClasses-1]; base >= 0; base = s.units[base].next {
				free++
			}
			if free != s.FramesOwned() {
				t.Fatalf("after drain %d top-class free segments, want %d (coalescing failed)",
					free, s.FramesOwned())
			}
		})
	}
}

// TestSnapshotRefusesCapacityStore pins that snapshots capture only
// unlimited stores: a store with a frame budget carries cooling-queue and
// spill-tier state the capture leaves out, so Snapshot panics instead of
// producing a capture that would restore without it.
func TestSnapshotRefusesCapacityStore(t *testing.T) {
	s, err := New(mem.New(64), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetCapacity(3, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Snapshot of a capacity-armed store did not panic")
		}
	}()
	s.Snapshot()
}
