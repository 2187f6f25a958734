package coherence

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

type fakeMem struct {
	engine     *sim.Engine
	latency    sim.Cycle
	fetches    int
	writebacks int
}

func (m *fakeMem) Fetch(addr arch.PhysAddr, done sim.Cont) {
	m.fetches++
	m.engine.Schedule(m.latency, done)
}
func (m *fakeMem) WriteBack(arch.PhysAddr) { m.writebacks++ }

func newDomain(cores int) (*sim.Engine, *Domain, *fakeMem) {
	e := sim.NewEngine()
	mem := &fakeMem{engine: e, latency: 100}
	cfg := DefaultConfig()
	cfg.Cores = cores
	return e, New(e, cfg, mem), mem
}

func la(n uint64) arch.PhysAddr { return arch.PhysAddr(n << arch.LineShift) }

func run(e *sim.Engine, fn func(done sim.Cont)) sim.Cycle {
	start := e.Now()
	var end sim.Cycle
	ok := false
	fn(sim.Bind(func(uint64) { end = e.Now(); ok = true }, 0))
	e.Run()
	if !ok {
		panic("op never completed")
	}
	return end - start
}

func TestFirstReadGetsExclusive(t *testing.T) {
	e, d, mem := newDomain(4)
	run(e, func(done sim.Cont) { d.Read(0, la(1), done) })
	if d.StateOf(0, la(1)) != Exclusive {
		t.Fatalf("state = %v, want E", d.StateOf(0, la(1)))
	}
	if mem.fetches != 1 {
		t.Fatalf("fetches = %d", mem.fetches)
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	e, d, _ := newDomain(4)
	run(e, func(done sim.Cont) { d.Read(0, la(1), done) })
	run(e, func(done sim.Cont) { d.Read(1, la(1), done) })
	if d.StateOf(0, la(1)) != Shared || d.StateOf(1, la(1)) != Shared {
		t.Fatalf("states = %v/%v, want S/S", d.StateOf(0, la(1)), d.StateOf(1, la(1)))
	}
}

func TestExclusiveUpgradesSilently(t *testing.T) {
	e, d, mem := newDomain(4)
	run(e, func(done sim.Cont) { d.Read(0, la(1), done) })
	lat := run(e, func(done sim.Cont) { d.Write(0, la(1), done) })
	if d.StateOf(0, la(1)) != Modified {
		t.Fatal("E→M upgrade failed")
	}
	if lat != DefaultConfig().L1Hit {
		t.Fatalf("silent upgrade cost %d cycles, want L1 hit", lat)
	}
	if mem.fetches != 1 {
		t.Fatal("upgrade should not refetch")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	e, d, _ := newDomain(4)
	for c := 0; c < 3; c++ {
		run(e, func(done sim.Cont) { d.Read(c, la(1), done) })
	}
	run(e, func(done sim.Cont) { d.Write(0, la(1), done) })
	if d.StateOf(0, la(1)) != Modified {
		t.Fatal("writer not Modified")
	}
	for c := 1; c < 3; c++ {
		if d.StateOf(c, la(1)) != Invalid {
			t.Fatalf("core %d still has the line", c)
		}
	}
	if e.Stats.Get("coherence.invalidations") == 0 {
		t.Fatal("no invalidations counted")
	}
}

func TestDirtyForwarding(t *testing.T) {
	e, d, mem := newDomain(2)
	run(e, func(done sim.Cont) { d.Write(0, la(1), done) })
	wb := mem.writebacks
	run(e, func(done sim.Cont) { d.Read(1, la(1), done) })
	if mem.writebacks != wb+1 {
		t.Fatal("dirty owner must write back on downgrade")
	}
	if d.StateOf(0, la(1)) != Shared || d.StateOf(1, la(1)) != Shared {
		t.Fatal("downgrade failed")
	}
}

func TestWriteAfterWriteMigratesOwnership(t *testing.T) {
	e, d, _ := newDomain(2)
	run(e, func(done sim.Cont) { d.Write(0, la(1), done) })
	run(e, func(done sim.Cont) { d.Write(1, la(1), done) })
	if d.StateOf(1, la(1)) != Modified || d.StateOf(0, la(1)) != Invalid {
		t.Fatalf("states = %v/%v", d.StateOf(0, la(1)), d.StateOf(1, la(1)))
	}
}

type recListener struct {
	cores []int
	addrs []arch.PhysAddr
}

func (r *recListener) OnReadExclusive(core int, addr arch.PhysAddr) {
	r.cores = append(r.cores, core)
	r.addrs = append(r.addrs, addr)
}

func TestOverlayingReadExclusiveNotifiesListener(t *testing.T) {
	e, d, _ := newDomain(4)
	l := &recListener{}
	d.SetListener(l)
	// Spread the line across cores first.
	for c := 0; c < 3; c++ {
		run(e, func(done sim.Cont) { d.Read(c, la(7), done) })
	}
	run(e, func(done sim.Cont) { d.ReadExclusive(3, la(7), done) })
	if len(l.cores) == 0 || l.cores[len(l.cores)-1] != 3 {
		t.Fatalf("listener events: %v", l.cores)
	}
	if e.Stats.Get("coherence.overlaying_read_exclusive") != 1 {
		t.Fatal("message not counted")
	}
	// All other copies gone, requester owns it.
	for c := 0; c < 3; c++ {
		if d.StateOf(c, la(7)) != Invalid {
			t.Fatalf("core %d survived read-exclusive", c)
		}
	}
	if d.StateOf(3, la(7)) != Modified {
		t.Fatal("requester not Modified")
	}
}

func TestEvictionWritesBackModified(t *testing.T) {
	e, d, mem := newDomain(1)
	cfg := DefaultConfig()
	setsLines := cfg.L1Size / arch.LineSize / cfg.L1Ways // lines per way-set
	// Fill one set beyond capacity with writes.
	victim := la(0)
	run(e, func(done sim.Cont) { d.Write(0, victim, done) })
	for i := 1; i <= cfg.L1Ways; i++ {
		run(e, func(done sim.Cont) { d.Write(0, la(uint64(i*setsLines)), done) })
	}
	if mem.writebacks == 0 {
		t.Fatal("modified victim never written back")
	}
	if d.StateOf(0, victim) != Invalid {
		t.Fatal("victim state lingered")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomStormKeepsInvariants(t *testing.T) {
	e, d, _ := newDomain(4)
	rng := rand.New(rand.NewSource(77))
	pendingDone := 0
	cb := sim.Bind(func(uint64) { pendingDone-- }, 0)
	for i := 0; i < 5000; i++ {
		core := rng.Intn(4)
		addr := la(uint64(rng.Intn(256)))
		pendingDone++
		switch rng.Intn(3) {
		case 0:
			d.Read(core, addr, cb)
		case 1:
			d.Write(core, addr, cb)
		default:
			d.ReadExclusive(core, addr, cb)
		}
		if i%16 == 0 {
			e.Run()
		}
	}
	e.Run()
	if pendingDone != 0 {
		t.Fatalf("%d operations never completed", pendingDone)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadExclusiveLatencyScalesWithSharers(t *testing.T) {
	// An upgrade with sharers costs at least a directory lookup plus an
	// invalidation round — far less than a 4000-cycle shootdown.
	e, d, _ := newDomain(4)
	for c := 0; c < 4; c++ {
		run(e, func(done sim.Cont) { d.Read(c, la(9), done) })
	}
	lat := run(e, func(done sim.Cont) { d.ReadExclusive(0, la(9), done) })
	cfg := DefaultConfig()
	min := cfg.L1Hit + cfg.DirLookup + cfg.Invalidate
	if lat < min {
		t.Fatalf("latency %d below protocol floor %d", lat, min)
	}
	if lat > 500 {
		t.Fatalf("latency %d way above a coherence round", lat)
	}
}

// TestBusyLineRunsInIssueOrder pins the directory's per-line queue:
// transactions issued to a busy line count one line conflict each at
// issue, then run in issue order, each starting once the one before it
// has completed.
func TestBusyLineRunsInIssueOrder(t *testing.T) {
	e, d, _ := newDomain(4)
	var order []uint64
	var at []sim.Cycle
	done := func(core uint64) {
		order = append(order, core)
		at = append(at, e.Now())
	}
	d.Write(0, la(3), sim.Bind(done, 0))
	d.Read(1, la(3), sim.Bind(done, 1))
	d.ReadExclusive(2, la(3), sim.Bind(done, 2))
	e.Run()
	// Write: directory + memory fetch (12+100). Read: forwarded from the
	// Modified owner (12+30). ReadExclusive: two sharers invalidated,
	// then a memory fetch (12+20+100).
	wantOrder, wantAt := []uint64{0, 1, 2}, []sim.Cycle{112, 154, 286}
	for i := range wantOrder {
		if i >= len(order) || order[i] != wantOrder[i] || at[i] != wantAt[i] {
			t.Fatalf("completions (core, cycle) = %v at %v, want %v at %v", order, at, wantOrder, wantAt)
		}
	}
	if got := e.Stats.Get("coherence.line_conflicts"); got != 2 {
		t.Fatalf("coherence.line_conflicts = %d, want 2", got)
	}
	// The line is idle again: a later read starts at once.
	d.Read(3, la(3), sim.Bind(done, 3))
	e.Run()
	if len(order) != 4 || order[3] != 3 || at[3] != 328 {
		t.Fatalf("later read completed as %v at %v, want core 3 at 328", order, at)
	}
	if got := e.Stats.Get("coherence.line_conflicts"); got != 2 {
		t.Fatalf("coherence.line_conflicts = %d after an idle-line read, want 2", got)
	}
}
