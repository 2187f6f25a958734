package dram

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

func newTestController() (*sim.Engine, *Controller) {
	e := sim.NewEngine()
	return e, New(e, DefaultConfig())
}

// ev adapts a test closure to a continuation.
func ev(f func()) sim.Cont { return sim.Bind(func(uint64) { f() }, 0) }

// lineAddr builds a line-aligned address from a line number.
func lineAddr(n uint64) arch.PhysAddr { return arch.PhysAddr(n << arch.LineShift) }

func TestSingleReadLatency(t *testing.T) {
	e, c := newTestController()
	cfg := DefaultConfig()
	var doneAt sim.Cycle
	c.Read(lineAddr(0), ev(func() { doneAt = e.Now() }))
	e.Run()
	want := cfg.TRCD + cfg.TCL + cfg.TBurst // closed bank
	if doneAt != want {
		t.Fatalf("read latency = %d, want %d", doneAt, want)
	}
	if e.Stats.Get("dram.row_closed") != 1 {
		t.Fatal("expected a row-closed access")
	}
}

func TestRowHitIsFaster(t *testing.T) {
	e, c := newTestController()
	var first, second sim.Cycle
	c.Read(lineAddr(0), ev(func() { first = e.Now() }))
	c.Read(lineAddr(1), ev(func() { second = e.Now() }))
	e.Run()
	cfg := DefaultConfig()
	if second-first > cfg.TCL+cfg.TBurst {
		t.Fatalf("row hit latency %d too slow", second-first)
	}
	if e.Stats.Get("dram.row_hits") != 1 {
		t.Fatalf("row_hits = %d, want 1", e.Stats.Get("dram.row_hits"))
	}
}

func TestRowConflictIsSlower(t *testing.T) {
	e, c := newTestController()
	linesPerRow := uint64(DefaultConfig().RowBytes / arch.LineSize)
	banks := uint64(DefaultConfig().Banks)
	var first, second sim.Cycle
	c.Read(lineAddr(0), ev(func() { first = e.Now() }))
	// Same bank (stride = linesPerRow*banks), different row.
	c.Read(lineAddr(linesPerRow*banks), ev(func() { second = e.Now() }))
	e.Run()
	cfg := DefaultConfig()
	want := cfg.TRP + cfg.TRCD + cfg.TCL + cfg.TBurst
	if second-first < want {
		t.Fatalf("conflict latency %d, want >= %d", second-first, want)
	}
	if e.Stats.Get("dram.row_conflicts") != 1 {
		t.Fatalf("row_conflicts = %d, want 1", e.Stats.Get("dram.row_conflicts"))
	}
}

func TestBankParallelismOverlapsLatency(t *testing.T) {
	// Two reads to different banks should overlap their activations and
	// finish much sooner than strictly serialized accesses.
	e, c := newTestController()
	linesPerRow := uint64(DefaultConfig().RowBytes / arch.LineSize)
	var last sim.Cycle
	c.Read(lineAddr(0), ev(func() { last = e.Now() }))
	c.Read(lineAddr(linesPerRow), ev(func() {
		if e.Now() > last {
			last = e.Now()
		}
	}))
	e.Run()
	cfg := DefaultConfig()
	serialized := 2 * (cfg.TRCD + cfg.TCL + cfg.TBurst)
	if last >= serialized {
		t.Fatalf("no bank parallelism: finished at %d, serialized bound %d", last, serialized)
	}
}

func TestWriteCompletesImmediately(t *testing.T) {
	e, c := newTestController()
	c.Write(lineAddr(0))
	if c.Pending() != 1 {
		t.Fatalf("pending = %d after write, want 1 (buffered)", c.Pending())
	}
	e.Run()
	if e.Stats.Get("dram.writes") != 1 {
		t.Fatal("write not counted")
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0 (drained)", c.Pending())
	}
}

func TestWriteBufferForwarding(t *testing.T) {
	e, c := newTestController()
	c.Write(lineAddr(7))
	var doneAt sim.Cycle
	c.Read(lineAddr(7), ev(func() { doneAt = e.Now() }))
	e.RunUntil(DefaultConfig().WBForwardLat + 1)
	if doneAt != DefaultConfig().WBForwardLat {
		t.Fatalf("forwarded read at %d, want %d", doneAt, DefaultConfig().WBForwardLat)
	}
	if e.Stats.Get("dram.write_buffer_forwards") != 1 {
		t.Fatal("forward not counted")
	}
	e.Run()
}

func TestWriteDrainWhenFull(t *testing.T) {
	e, c := newTestController()
	cap := DefaultConfig().WriteBufCap
	for i := 0; i < cap; i++ {
		c.Write(lineAddr(uint64(i * 997)))
	}
	if e.Stats.Get("dram.write_drains") != 1 {
		t.Fatalf("drains = %d, want 1", e.Stats.Get("dram.write_drains"))
	}
	e.Run()
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", c.Pending())
	}
}

func TestDrainBlocksReads(t *testing.T) {
	// A read arriving during a full-buffer drain must wait for the drain.
	e, c := newTestController()
	cfg := DefaultConfig()
	for i := 0; i < cfg.WriteBufCap; i++ {
		c.Write(lineAddr(uint64(i) * uint64(cfg.RowBytes/arch.LineSize) * uint64(cfg.Banks)))
	}
	var readDone sim.Cycle
	c.Read(lineAddr(1<<30), ev(func() { readDone = e.Now() }))
	e.Run()
	soloRead := cfg.TRCD + cfg.TCL + cfg.TBurst
	if readDone <= soloRead*2 {
		t.Fatalf("read finished at %d; expected it to wait behind the drain", readDone)
	}
}

func TestAllRequestsComplete(t *testing.T) {
	e, c := newTestController()
	const n = 500
	done := 0
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			c.Write(lineAddr(uint64(i * 13)))
		} else {
			c.Read(lineAddr(uint64(i*29)), ev(func() { done++ }))
		}
	}
	e.Run()
	wantReads := 0
	for i := 0; i < n; i++ {
		if i%3 != 0 {
			wantReads++
		}
	}
	if done != wantReads {
		t.Fatalf("completed reads = %d, want %d", done, wantReads)
	}
	if c.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", c.Pending())
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	e, c := newTestController()
	linesPerRow := uint64(DefaultConfig().RowBytes / arch.LineSize)
	banks := uint64(DefaultConfig().Banks)
	// Open row 0 of bank 0.
	e2 := make(chan struct{}, 8)
	_ = e2
	order := []string{}
	c.Read(lineAddr(0), ev(func() { order = append(order, "warm") }))
	e.Run()
	// Now enqueue: first a conflict (row 1, bank 0), then a hit (row 0).
	c.Read(lineAddr(linesPerRow*banks), ev(func() { order = append(order, "conflict") }))
	c.Read(lineAddr(2), ev(func() { order = append(order, "hit") }))
	e.Run()
	if len(order) != 3 || order[1] != "hit" || order[2] != "conflict" {
		t.Fatalf("FR-FCFS order = %v, want hit before conflict", order)
	}
}

func TestMapAddrGeometry(t *testing.T) {
	_, c := newTestController()
	linesPerRow := uint64(DefaultConfig().RowBytes / arch.LineSize)
	b0, r0 := c.mapAddr(lineAddr(0))
	b1, r1 := c.mapAddr(lineAddr(linesPerRow - 1))
	if b0 != b1 || r0 != r1 {
		t.Fatal("lines within one row must map to the same (bank,row)")
	}
	b2, _ := c.mapAddr(lineAddr(linesPerRow))
	if b2 == b0 {
		t.Fatal("next row chunk should map to the next bank")
	}
}

func TestConservationUnderRandomTraffic(t *testing.T) {
	// Property: every read completes exactly once, no request is lost or
	// duplicated, and the queues drain, for arbitrary interleavings.
	e, c := newTestController()
	rng := rand.New(rand.NewSource(4242))
	completions := map[int]int{}
	reads := 0
	for i := 0; i < 3000; i++ {
		addr := lineAddr(uint64(rng.Intn(1 << 20)))
		if rng.Intn(3) == 0 {
			c.Write(addr)
		} else {
			id := reads
			reads++
			c.Read(addr, ev(func() { completions[id]++ }))
		}
		if rng.Intn(8) == 0 {
			e.RunUntil(e.Now() + sim.Cycle(rng.Intn(200)))
		}
	}
	e.Run()
	if c.Pending() != 0 {
		t.Fatalf("pending = %d after drain", c.Pending())
	}
	if len(completions) != reads {
		t.Fatalf("completed %d distinct reads, want %d", len(completions), reads)
	}
	for id, n := range completions {
		if n != 1 {
			t.Fatalf("read %d completed %d times", id, n)
		}
	}
}

func TestBusNeverDoubleBooked(t *testing.T) {
	// Property: data bursts never overlap — total run time of N row-hit
	// reads is at least N × TBurst.
	e, c := newTestController()
	cfg := DefaultConfig()
	const n = 200
	done := 0
	for i := 0; i < n; i++ {
		c.Read(lineAddr(uint64(i)), ev(func() { done++ }))
	}
	end := e.Run()
	if done != n {
		t.Fatalf("done = %d", done)
	}
	if end < sim.Cycle(n)*cfg.TBurst {
		t.Fatalf("finished in %d cycles; %d bursts need ≥ %d — bus double-booked",
			end, n, sim.Cycle(n)*cfg.TBurst)
	}
}
