package cpu

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/vm"
)

func newSystem(t *testing.T) (*core.Framework, *core.Port, *vm.Process) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 4096
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := f.NewPort()
	p := f.VM.NewProcess()
	if err := f.VM.MapAnon(p, 0, 64); err != nil {
		t.Fatal(err)
	}
	return f, port, p
}

func runCore(f *core.Framework, c *Core, limit uint64) {
	c.Run(limit)
	f.Engine.Run()
	if c.Running() {
		panic("core did not finish")
	}
}

func TestComputeOnlyCPIApproachesOne(t *testing.T) {
	f, port, p := newSystem(t)
	instrs := make([]Instr, 1000)
	for i := range instrs {
		instrs[i] = Instr{Kind: Compute, N: 1}
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 0)
	if c.Retired() != 1000 {
		t.Fatalf("retired = %d", c.Retired())
	}
	if cpi := c.CPI(); cpi < 0.99 || cpi > 1.2 {
		t.Fatalf("compute-only CPI = %v, want ≈1", cpi)
	}
}

func TestComputeBurstsRetireAllInstructions(t *testing.T) {
	f, port, p := newSystem(t)
	c := New(f.Engine, port, p.PID, NewSliceTrace([]Instr{
		{Kind: Compute, N: 10}, {Kind: Compute, N: 5}, {Kind: Compute, N: 1},
	}))
	runCore(f, c, 0)
	if c.Retired() != 16 {
		t.Fatalf("retired = %d, want 16", c.Retired())
	}
}

func TestLimitStopsEarly(t *testing.T) {
	f, port, p := newSystem(t)
	instrs := make([]Instr, 1000)
	for i := range instrs {
		instrs[i] = Instr{Kind: Compute, N: 1}
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 100)
	if c.Retired() < 100 || c.Retired() > 110 {
		t.Fatalf("retired = %d, want ≈100", c.Retired())
	}
}

func TestLoadsStallWhenDependentWindowFull(t *testing.T) {
	// A single cold load among computes: CPI impact bounded by the miss
	// latency amortised over the window, not serialized per instruction.
	f, port, p := newSystem(t)
	var instrs []Instr
	instrs = append(instrs, Instr{Kind: Load, VA: 0})
	for i := 0; i < 200; i++ {
		instrs = append(instrs, Instr{Kind: Compute, N: 1})
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 0)
	if c.Retired() != 201 {
		t.Fatalf("retired = %d", c.Retired())
	}
	// The load's ~1200-cycle cold latency is overlapped with dispatching
	// the window behind it, but retirement is in-order, so total cycles ≈
	// miss latency + remaining computes.
	if c.Cycles() < 1000 {
		t.Fatalf("cycles = %d, too fast for a cold TLB+DRAM miss", c.Cycles())
	}
	if c.Cycles() > 2500 {
		t.Fatalf("cycles = %d, load appears serialized", c.Cycles())
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Two cores each issue 8 loads to distinct pages. MLP: total time must
	// be far less than 8 sequential cold misses.
	f, port, p := newSystem(t)
	var instrs []Instr
	for i := 0; i < 8; i++ {
		instrs = append(instrs, Instr{Kind: Load, VA: arch.VirtAddr(i * arch.PageSize)})
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 0)
	// One cold access ≈ TLB walk (1011) + L1/L2/L3 tags + DRAM (~100).
	// Eight serialized ≈ 9000+. Overlapped should be well under half.
	if c.Cycles() > 4500 {
		t.Fatalf("cycles = %d, no overlap between independent loads", c.Cycles())
	}
}

func TestStoresRetire(t *testing.T) {
	f, port, p := newSystem(t)
	var instrs []Instr
	for i := 0; i < 50; i++ {
		instrs = append(instrs, Instr{Kind: Store, VA: arch.VirtAddr(i * arch.LineSize)})
		instrs = append(instrs, Instr{Kind: Compute, N: 2})
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 0)
	if c.Retired() != 150 {
		t.Fatalf("retired = %d, want 150", c.Retired())
	}
	if f.Engine.Stats.Get("cpu.instructions") != 150 {
		t.Fatal("stats not recorded")
	}
}

func TestRunTwicePanics(t *testing.T) {
	f, port, p := newSystem(t)
	c := New(f.Engine, port, p.PID, NewSliceTrace([]Instr{{Kind: Compute, N: 1}}))
	c.Run(0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run(0)
	_ = f
}

func TestFuncTrace(t *testing.T) {
	n := 0
	tr := FuncTrace(func() (Instr, bool) {
		if n >= 5 {
			return Instr{}, false
		}
		n++
		return Instr{Kind: Compute, N: 1}, true
	})
	f, port, p := newSystem(t)
	c := New(f.Engine, port, p.PID, tr)
	runCore(f, c, 0)
	if c.Retired() != 5 {
		t.Fatalf("retired = %d", c.Retired())
	}
}

func TestHotLoopCPINearOne(t *testing.T) {
	// Warm data: repeated loads of the same line plus computes — after
	// warm-up, CPI should sit near 1 (every op is a hit).
	f, port, p := newSystem(t)
	var instrs []Instr
	for i := 0; i < 500; i++ {
		instrs = append(instrs, Instr{Kind: Load, VA: 0})
		instrs = append(instrs, Instr{Kind: Compute, N: 3})
	}
	c := New(f.Engine, port, p.PID, NewSliceTrace(instrs))
	runCore(f, c, 0)
	if cpi := c.CPI(); cpi > 2.0 {
		t.Fatalf("hot-loop CPI = %v, want near 1", cpi)
	}
}
