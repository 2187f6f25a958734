package prefetch

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

type recorder struct{ addrs []arch.PhysAddr }

func (r *recorder) Prefetch(addr arch.PhysAddr) bool { r.addrs = append(r.addrs, addr); return true }

func lineAddr(n int64) arch.PhysAddr { return arch.PhysAddr(uint64(n) << arch.LineShift) }

func newPF() (*Prefetcher, *recorder, *sim.Stats) {
	r := &recorder{}
	var st sim.Stats
	return New(DefaultConfig(), r, &st), r, &st
}

func TestFirstMissOnlyAllocates(t *testing.T) {
	p, r, st := newPF()
	p.OnMiss(lineAddr(100))
	if len(r.addrs) != 0 {
		t.Fatalf("prefetches after one miss: %v", r.addrs)
	}
	if st.Get("prefetch.streams_allocated") != 1 {
		t.Fatal("stream not allocated")
	}
}

func TestAscendingStreamPrefetchesAhead(t *testing.T) {
	p, r, _ := newPF()
	p.OnMiss(lineAddr(100))
	p.OnMiss(lineAddr(101))
	if len(r.addrs) != DefaultConfig().Degree {
		t.Fatalf("issued %d prefetches, want %d", len(r.addrs), DefaultConfig().Degree)
	}
	for i, a := range r.addrs {
		want := lineAddr(102 + int64(i))
		if a != want {
			t.Fatalf("prefetch[%d] = %#x, want %#x", i, uint64(a), uint64(want))
		}
	}
}

func TestDescendingStream(t *testing.T) {
	p, r, _ := newPF()
	p.OnMiss(lineAddr(200))
	p.OnMiss(lineAddr(199))
	if len(r.addrs) == 0 {
		t.Fatal("no prefetches for descending stream")
	}
	if r.addrs[0] != lineAddr(198) {
		t.Fatalf("first prefetch = %#x, want line 198", uint64(r.addrs[0]))
	}
}

func TestDistanceCap(t *testing.T) {
	p, r, _ := newPF()
	cfg := DefaultConfig()
	p.OnMiss(lineAddr(0))
	// Keep hitting the same stream; prefetches must never run more than
	// Distance lines past the latest miss.
	last := int64(0)
	for i := int64(1); i <= 20; i++ {
		p.OnMiss(lineAddr(i))
		last = i
	}
	for _, a := range r.addrs {
		line := int64(uint64(a) >> arch.LineShift)
		if line > last+int64(cfg.Distance) {
			t.Fatalf("prefetch to line %d exceeds distance cap (last miss %d)", line, last)
		}
	}
}

func TestNoDuplicatePrefetches(t *testing.T) {
	p, r, _ := newPF()
	for i := int64(0); i < 10; i++ {
		p.OnMiss(lineAddr(i))
	}
	seen := map[arch.PhysAddr]bool{}
	for _, a := range r.addrs {
		if seen[a] {
			t.Fatalf("duplicate prefetch of %#x", uint64(a))
		}
		seen[a] = true
	}
}

func TestDistantMissAllocatesNewStream(t *testing.T) {
	p, _, st := newPF()
	p.OnMiss(lineAddr(0))
	p.OnMiss(lineAddr(100000))
	if st.Get("prefetch.streams_allocated") != 2 {
		t.Fatalf("allocated = %d, want 2", st.Get("prefetch.streams_allocated"))
	}
}

func TestStreamTableLRUReplacement(t *testing.T) {
	p, r, st := newPF()
	cfg := DefaultConfig()
	// Allocate Streams+1 distinct streams; the first should be replaced.
	for i := 0; i <= cfg.Streams; i++ {
		p.OnMiss(lineAddr(int64(i) * 1000000))
	}
	if st.Get("prefetch.streams_allocated") != uint64(cfg.Streams+1) {
		t.Fatalf("allocated = %d", st.Get("prefetch.streams_allocated"))
	}
	// A miss near stream 0's old position must retrain from scratch (no
	// immediate prefetch burst from a stale entry with wrong direction).
	before := len(r.addrs)
	p.OnMiss(lineAddr(1))
	if len(r.addrs) != before {
		t.Fatal("stale stream produced prefetches")
	}
}

func TestDirectionFlipRetrains(t *testing.T) {
	p, r, _ := newPF()
	p.OnMiss(lineAddr(100))
	p.OnMiss(lineAddr(101)) // ascending established
	n := len(r.addrs)
	p.OnMiss(lineAddr(99)) // flip
	if len(r.addrs) <= n {
		t.Fatal("flip should issue prefetches in the new direction")
	}
	lastBatch := r.addrs[n:]
	if lastBatch[0] != lineAddr(98) {
		t.Fatalf("first post-flip prefetch = line %d, want 98", uint64(lastBatch[0])>>arch.LineShift)
	}
}

func TestOverlayAddressesPrefetchable(t *testing.T) {
	// Overlay-space streams (e.g. SpMV over overlays) must train too.
	p, r, _ := newPF()
	base := arch.PhysAddr(arch.OverlayBit)
	p.OnMiss(base)
	p.OnMiss(base + arch.LineSize)
	if len(r.addrs) == 0 {
		t.Fatal("no prefetches in overlay space")
	}
	if !r.addrs[0].IsOverlay() {
		t.Fatal("prefetch address lost the overlay bit")
	}
}

// TestIssuedCounterAppearsOnFirstPrefetch checks the lazily fetched
// "prefetch.issued" handle: a prefetcher that only allocates streams
// registers no such counter (so its run exports no such key), and the
// first prefetch issued creates it.
func TestIssuedCounterAppearsOnFirstPrefetch(t *testing.T) {
	p, r, st := newPF()
	p.OnMiss(lineAddr(100))
	p.OnMiss(lineAddr(5000))
	for _, name := range st.Names() {
		if name == "prefetch.issued" {
			t.Fatal("prefetch.issued registered before any prefetch was issued")
		}
	}
	p.OnMiss(lineAddr(101))
	if got := st.Get("prefetch.issued"); got != uint64(len(r.addrs)) || got == 0 {
		t.Fatalf("prefetch.issued = %d, want %d", got, len(r.addrs))
	}
}
