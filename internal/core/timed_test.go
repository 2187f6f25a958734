package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/vm"
)

// run executes fn and returns the cycles it took to complete.
func run(f *Framework, fn func(done sim.Cont)) sim.Cycle {
	start := f.Engine.Now()
	var end sim.Cycle
	completed := false
	fn(sim.Bind(func(uint64) { end = f.Engine.Now(); completed = true }, 0))
	f.Engine.Run()
	if !completed {
		panic("timed op never completed")
	}
	return end - start
}

func setupForkPair(t *testing.T, overlayMode bool) (*Framework, *Port, *vm.Process) {
	t.Helper()
	f := newFW(t)
	port := f.NewPort()
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 8)
	f.Fork(parent, overlayMode)
	return f, port, parent
}

func TestTimedReadCompletes(t *testing.T) {
	f := newFW(t)
	port := f.NewPort()
	p := f.VM.NewProcess()
	mustMap(t, f, p, 0, 1)
	lat := run(f, func(done sim.Cont) { port.Read(p.PID, 0, done) })
	if lat == 0 {
		t.Fatal("read took zero cycles")
	}
	// Second read is much faster (TLB + L1 hits).
	lat2 := run(f, func(done sim.Cont) { port.Read(p.PID, 0, done) })
	if lat2 >= lat {
		t.Fatalf("second read (%d) not faster than first (%d)", lat2, lat)
	}
	if lat2 != f.Config.TLB.L1Latency+f.Config.Cache.L1.HitLatency {
		t.Fatalf("hot read latency = %d", lat2)
	}
}

func TestTimedOverlayingWriteCheaperThanCOW(t *testing.T) {
	fo, po, parento := setupForkPair(t, true)
	oLat := run(fo, func(done sim.Cont) { po.Write(parento.PID, 0, done) })

	fc, pc, parentc := setupForkPair(t, false)
	cLat := run(fc, func(done sim.Cont) { pc.Write(parentc.PID, 0, done) })

	if oLat >= cLat {
		t.Fatalf("overlaying write (%d) not cheaper than COW fault (%d)", oLat, cLat)
	}
	// Table 1's figures (the root BenchmarkTable1OverlayOnWrite); the COW
	// fault's shootdown waits for the last of its 64 line copies.
	if oLat != 1164 || cLat != 7863 {
		t.Fatalf("first writes took %d (overlaying) and %d (COW) cycles, want 1164 and 7863", oLat, cLat)
	}
	// The COW fault must at least pay trap + shootdown.
	min := fc.Config.COWTrapLatency + fc.Config.TLB.ShootdownLatency
	if cLat < min {
		t.Fatalf("COW fault latency %d below floor %d", cLat, min)
	}
}

func TestCOWCopyUsesMemoryLevelParallelism(t *testing.T) {
	f, port, parent := setupForkPair(t, false)
	lat := run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	// 64 serialized DRAM reads would cost far more than 64 overlapped
	// ones. A fully serialized copy is ≥ 64 × (TRCD+TCL+TBurst) = 64×90.
	serialized := sim.Cycle(64 * 90)
	if lat-f.Config.COWTrapLatency-f.Config.TLB.ShootdownLatency >= serialized {
		t.Fatalf("page copy latency %d suggests no MLP", lat)
	}
	if f.Engine.Stats.Get("core.cow_page_copies") != 1 {
		t.Fatal("no page copy recorded")
	}
}

func TestCOWCopyWarmsDestinationCache(t *testing.T) {
	f, port, parent := setupForkPair(t, false)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	// The first post-fault access repays the TLB entry the shootdown
	// removed, but the cache line itself is an L1 hit: the copy installed
	// every destination line.
	tcfg := f.Config.TLB
	lat := run(f, func(done sim.Cont) { port.Write(parent.PID, 33*arch.LineSize, done) })
	want := tcfg.L1Latency + tcfg.L2Latency + tcfg.WalkLatency + f.Config.Cache.L1.HitLatency
	if lat != want {
		t.Fatalf("post-copy write latency = %d, want TLB refill + L1 hit = %d", lat, want)
	}
	// With the TLB warm, further writes to the copied page are pure hits.
	lat = run(f, func(done sim.Cont) { port.Write(parent.PID, 34*arch.LineSize, done) })
	if want := tcfg.L1Latency + f.Config.Cache.L1.HitLatency; lat != want {
		t.Fatalf("warm post-copy write latency = %d, want %d", lat, want)
	}
}

func TestOverlayWriteThenReadHitsOverlayLine(t *testing.T) {
	f, port, parent := setupForkPair(t, true)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	// The overlay line is in L1 under its overlay address: a read of the
	// same line is an L1 hit.
	lat := run(f, func(done sim.Cont) { port.Read(parent.PID, 0, done) })
	want := f.Config.TLB.L1Latency + f.Config.Cache.L1.HitLatency
	if lat != want {
		t.Fatalf("overlay read latency = %d, want %d", lat, want)
	}
}

func TestOverlayMissGoesThroughOMT(t *testing.T) {
	f, port, parent := setupForkPair(t, true)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	// Force the overlay line out of the hierarchy, then read it back:
	// the fetch must consult the OMT cache and the OMS via DRAM.
	opn := arch.OverlayPage(parent.PID, 0)
	f.Hier.Invalidate(opn.LineAddr(0))
	missesBefore := f.Engine.Stats.Get("omt.cache_misses") + f.Engine.Stats.Get("omt.cache_hits")
	dramBefore := f.Engine.Stats.Get("dram.reads")
	run(f, func(done sim.Cont) { port.Read(parent.PID, 0, done) })
	if f.Engine.Stats.Get("omt.cache_misses")+f.Engine.Stats.Get("omt.cache_hits") == missesBefore {
		t.Fatal("overlay fetch bypassed the OMT cache")
	}
	if f.Engine.Stats.Get("dram.reads") == dramBefore {
		t.Fatal("overlay fetch never reached DRAM")
	}
}

func TestOverlayingWriteUpdatesAllTLBs(t *testing.T) {
	f := newFW(t)
	port0 := f.NewPort()
	port1 := f.NewPort()
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	f.Fork(parent, true)

	// Warm both TLBs with the page.
	run(f, func(done sim.Cont) { port0.Read(parent.PID, 0, done) })
	run(f, func(done sim.Cont) { port1.Read(parent.PID, 0, done) })

	shootBefore := f.Engine.Stats.Get("tlb.shootdowns")
	run(f, func(done sim.Cont) { port0.Write(parent.PID, 0, done) })
	if f.Engine.Stats.Get("tlb.shootdowns") != shootBefore {
		t.Fatal("overlaying write must not shoot down TLBs")
	}
	e, ok := port1.TLB.Peek(parent.PID, 0)
	if !ok || !e.OBits.Has(0) {
		t.Fatal("other core's TLB missed the coherence update")
	}
	if f.Engine.Stats.Get("core.overlaying_read_exclusive") == 0 {
		t.Fatal("no coherence message recorded")
	}
}

func TestConventionalCOWShootsDownTLBs(t *testing.T) {
	f, port, parent := setupForkPair(t, false)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	if f.Engine.Stats.Get("tlb.shootdowns") == 0 {
		t.Fatal("COW remap must shoot down the TLB")
	}
}

func TestDirtyOverlayLineWritesBackToOMS(t *testing.T) {
	f, port, parent := setupForkPair(t, true)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	opn := arch.OverlayPage(parent.PID, 0)
	dramWrites := f.Engine.Stats.Get("dram.writes")
	// Evict the dirty overlay line from every level: it must be written
	// back through the OMT to its OMS slot.
	present, dirty := f.Hier.Invalidate(opn.LineAddr(0))
	if !present || !dirty {
		t.Fatalf("expected dirty overlay line in cache (present=%v dirty=%v)", present, dirty)
	}
	// Invalidate drops it without writeback; instead use the backend path:
	f.backend.WriteBack(opn.LineAddr(0))
	f.Engine.Run()
	if f.Engine.Stats.Get("dram.writes") == dramWrites {
		t.Fatal("overlay write-back never reached DRAM")
	}
}

func TestTimedSimpleOverlayWriteIsCheap(t *testing.T) {
	f, port, parent := setupForkPair(t, true)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 0, done) })
	lat := run(f, func(done sim.Cont) { port.Write(parent.PID, 8, done) })
	want := f.Config.TLB.L1Latency + f.Config.Cache.L1.HitLatency
	if lat != want {
		t.Fatalf("simple overlay write = %d cycles, want %d", lat, want)
	}
}

func TestTimedWritePanicsOnUnmapped(t *testing.T) {
	f := newFW(t)
	port := f.NewPort()
	p := f.VM.NewProcess()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	port.Write(p.PID, 0, sim.Cont{})
}

func TestTimedAndFunctionalPathsAgree(t *testing.T) {
	// A timed overlaying write followed by a functional load must see the
	// structural overlay created by the timed path.
	f, port, parent := setupForkPair(t, true)
	run(f, func(done sim.Cont) { port.Write(parent.PID, 3*arch.LineSize, done) })
	obits, _ := f.OverlayInfo(parent.PID, 0)
	if !obits.Has(3) {
		t.Fatal("timed write did not create the overlay line")
	}
	// Functional store to the same line is a simple overlay write.
	before := f.Engine.Stats.Get("core.overlaying_writes")
	f.Store(parent.PID, 3*arch.LineSize, []byte{1})
	if f.Engine.Stats.Get("core.overlaying_writes") != before {
		t.Fatal("functional store re-created the overlay line")
	}
}
