package tlb

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// mapWalker is a Walker backed by a map.
type mapWalker struct {
	entries map[[2]uint64]Entry
	walks   int
}

func (w *mapWalker) put(pid arch.PID, vpn arch.VPN, e Entry) {
	if w.entries == nil {
		w.entries = map[[2]uint64]Entry{}
	}
	w.entries[[2]uint64{uint64(pid), uint64(vpn)}] = e
}

func (w *mapWalker) Walk(pid arch.PID, vpn arch.VPN) (Entry, sim.Cycle, bool) {
	w.walks++
	e, ok := w.entries[[2]uint64{uint64(pid), uint64(vpn)}]
	return e, DefaultConfig().WalkLatency, ok
}

func newTLB() (*TLB, *mapWalker, *sim.Stats) {
	w := &mapWalker{}
	var st sim.Stats
	return New(DefaultConfig(), w, &st), w, &st
}

func TestMissWalkThenHits(t *testing.T) {
	tl, w, st := newTLB()
	w.put(1, 10, Entry{PPN: 42, Writable: true})
	cfg := DefaultConfig()

	e, lat, ok := tl.Lookup(1, 10)
	if !ok || e.PPN != 42 {
		t.Fatalf("lookup failed: %+v ok=%v", e, ok)
	}
	if want := cfg.L1Latency + cfg.L2Latency + cfg.WalkLatency; lat != want {
		t.Fatalf("miss latency = %d, want %d", lat, want)
	}
	_, lat, ok = tl.Lookup(1, 10)
	if !ok || lat != cfg.L1Latency {
		t.Fatalf("L1 hit latency = %d, want %d", lat, cfg.L1Latency)
	}
	if w.walks != 1 {
		t.Fatalf("walks = %d, want 1", w.walks)
	}
	if st.Get("tlb.misses") != 1 || st.Get("tlb.l1_hits") != 1 {
		t.Fatalf("stats wrong: %v", st.Snapshot())
	}
}

func TestPageFault(t *testing.T) {
	tl, _, _ := newTLB()
	_, lat, ok := tl.Lookup(1, 99)
	if ok {
		t.Fatal("expected fault")
	}
	if lat == 0 {
		t.Fatal("failed walk must still cost cycles")
	}
	// Faulting entries must not be cached.
	if _, ok := tl.Peek(1, 99); ok {
		t.Fatal("fault cached")
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	tl, w, st := newTLB()
	cfg := DefaultConfig()
	// Fill pages that all collide in L1 set of vpn 0 but spread in L2.
	// L1: 16 sets; vpns 0, 16, 32, ... share L1 set 0 for pid 0.
	for i := 0; i < cfg.L1Ways+1; i++ {
		vpn := arch.VPN(i * 16)
		w.put(0, vpn, Entry{PPN: arch.PPN(i + 1)})
		tl.Lookup(0, vpn)
	}
	// vpn 0 was LRU in its L1 set → evicted, but still in L2.
	_, lat, ok := tl.Lookup(0, 0)
	if !ok {
		t.Fatal("lost mapping")
	}
	if want := cfg.L1Latency + cfg.L2Latency; lat != want {
		t.Fatalf("latency = %d, want L2 hit %d", lat, want)
	}
	if st.Get("tlb.l2_hits") != 1 {
		t.Fatalf("l2_hits = %d, want 1", st.Get("tlb.l2_hits"))
	}
}

func TestPIDsDoNotCollide(t *testing.T) {
	tl, w, _ := newTLB()
	w.put(1, 5, Entry{PPN: 100})
	w.put(2, 5, Entry{PPN: 200})
	e1, _, _ := tl.Lookup(1, 5)
	e2, _, _ := tl.Lookup(2, 5)
	if e1.PPN != 100 || e2.PPN != 200 {
		t.Fatalf("cross-pid confusion: %d %d", e1.PPN, e2.PPN)
	}
}

func TestShootdown(t *testing.T) {
	tl, w, st := newTLB()
	w.put(1, 10, Entry{PPN: 42})
	tl.Lookup(1, 10)
	cost := tl.Shootdown(1, 10)
	if cost != DefaultConfig().ShootdownLatency {
		t.Fatalf("cost = %d", cost)
	}
	if _, ok := tl.Peek(1, 10); ok {
		t.Fatal("entry survived shootdown")
	}
	if st.Get("tlb.shootdowns") != 1 {
		t.Fatal("shootdown not counted")
	}
	// Next lookup walks again.
	w.put(1, 10, Entry{PPN: 43})
	e, _, _ := tl.Lookup(1, 10)
	if e.PPN != 43 {
		t.Fatal("stale entry after shootdown")
	}
}

func TestUpdateLineSetsOBitWithoutShootdown(t *testing.T) {
	tl, w, st := newTLB()
	w.put(1, 10, Entry{PPN: 42})
	tl.Lookup(1, 10)
	if !tl.UpdateLine(1, 10, 17, true) {
		t.Fatal("UpdateLine found no entry")
	}
	e, ok := tl.Peek(1, 10)
	if !ok || !e.OBits.Has(17) || !e.HasOverlay {
		t.Fatalf("entry not updated: %+v", e)
	}
	if st.Get("tlb.shootdowns") != 0 {
		t.Fatal("line update must not shoot down")
	}
	if st.Get("tlb.line_updates") != 1 {
		t.Fatal("line update not counted")
	}
	// Clearing works too.
	tl.UpdateLine(1, 10, 17, false)
	e, _ = tl.Peek(1, 10)
	if e.OBits.Has(17) {
		t.Fatal("bit not cleared")
	}
}

func TestUpdateLineMissesQuietly(t *testing.T) {
	tl, _, _ := newTLB()
	if tl.UpdateLine(3, 3, 0, true) {
		t.Fatal("update of uncached page reported success")
	}
}

func TestUpdateLineReachesBothLevels(t *testing.T) {
	tl, w, _ := newTLB()
	cfg := DefaultConfig()
	// Install vpn 0, then evict it from L1 (it stays in L2).
	w.put(0, 0, Entry{PPN: 1})
	tl.Lookup(0, 0)
	for i := 1; i <= cfg.L1Ways; i++ {
		vpn := arch.VPN(i * 16)
		w.put(0, vpn, Entry{PPN: arch.PPN(i + 1)})
		tl.Lookup(0, vpn)
	}
	tl.UpdateLine(0, 0, 5, true)
	e, ok := tl.Peek(0, 0)
	if !ok || !e.OBits.Has(5) {
		t.Fatal("L2 copy not updated")
	}
}

func TestFlushPID(t *testing.T) {
	tl, w, _ := newTLB()
	w.put(1, 10, Entry{PPN: 1})
	w.put(2, 10, Entry{PPN: 2})
	tl.Lookup(1, 10)
	tl.Lookup(2, 10)
	tl.FlushPID(1)
	if _, ok := tl.Peek(1, 10); ok {
		t.Fatal("pid 1 entry survived flush")
	}
	if _, ok := tl.Peek(2, 10); !ok {
		t.Fatal("pid 2 entry wrongly flushed")
	}
}

func TestCOWAndOverlayFlagsRoundTrip(t *testing.T) {
	tl, w, _ := newTLB()
	w.put(1, 10, Entry{PPN: 42, COW: true, HasOverlay: true, OBits: arch.OBitVector(0).Set(3)})
	e, _, _ := tl.Lookup(1, 10)
	if !e.COW || !e.HasOverlay || !e.OBits.Has(3) {
		t.Fatalf("flags lost: %+v", e)
	}
}
