package core_test

// Timed fork equivalence: a framework captured at a quiescence point and
// resumed via NewFromSnapshot must replay the exact event order of the
// parent continuing — same cycles, same counters, same memory contents.

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
)

// equivTrace builds a deterministic mixed trace over n mapped pages.
func equivTrace(n int) []cpu.Instr {
	var instrs []cpu.Instr
	for i := 0; i < 4000; i++ {
		va := arch.VirtAddr((i * 7919) % (n * arch.PageSize))
		switch i % 3 {
		case 0:
			instrs = append(instrs, cpu.Instr{Kind: cpu.Compute, N: 1 + i%5})
		case 1:
			instrs = append(instrs, cpu.Instr{Kind: cpu.Load, VA: va})
		default:
			instrs = append(instrs, cpu.Instr{Kind: cpu.Store, VA: va})
		}
	}
	return instrs
}

func TestForkMatchesParentContinuation(t *testing.T) {
	const pages = 16
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 4096
	cfg.OMSInitialFrames = 4
	instrs := equivTrace(pages)

	build := func() (*core.Framework, *cpu.Core, arch.PID) {
		f, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := f.VM.NewProcess()
		if err := f.VM.MapAnon(p, 0, pages); err != nil {
			t.Fatal(err)
		}
		// Materialise the footprint with a pattern so the snapshot has
		// real frame contents to share copy-on-write.
		fill := make([]byte, pages*arch.PageSize)
		for i := range fill {
			fill[i] = byte(i * 31)
		}
		if err := f.Store(p.PID, 0, fill); err != nil {
			t.Fatal(err)
		}
		port := f.NewPort()
		return f, cpu.New(f.Engine, port, p.PID, cpu.NewSliceTrace(instrs)), p.PID
	}

	// Parent: warm, capture, then continue to completion.
	pf, pc, pid := build()
	pc.Run(1500)
	pf.Engine.Run()
	snap := pf.Snapshot()
	cpuSnap := pc.Snapshot()
	fetched := pc.Fetched()
	pc.Run(0)
	pf.Engine.Run()

	// Fork: resume from the capture and run the same remainder.
	ff := core.NewFromSnapshot(snap)
	trace := cpu.NewSliceTrace(instrs)
	for i := uint64(0); i < fetched; i++ {
		trace.Next()
	}
	fc := cpu.New(ff.Engine, ff.Port(0), pid, trace)
	fc.Restore(cpuSnap)
	fc.Run(0)
	ff.Engine.Run()

	if pc.Cycles() != fc.Cycles() {
		t.Errorf("cycles diverge: parent %d, fork %d", pc.Cycles(), fc.Cycles())
	}
	if pc.Retired() != fc.Retired() {
		t.Errorf("retired diverge: parent %d, fork %d", pc.Retired(), fc.Retired())
	}
	if p, f := pf.Engine.Stats.String(), ff.Engine.Stats.String(); p != f {
		t.Errorf("registries diverge\nparent:\n%s\nfork:\n%s", p, f)
	}
	// Memory contents must match too: the fork's copy-on-write writes
	// land in private frames with the same values.
	pb, fb := make([]byte, pages*arch.PageSize), make([]byte, pages*arch.PageSize)
	if err := pf.Load(pid, 0, pb); err != nil {
		t.Fatal(err)
	}
	if err := ff.Load(pid, 0, fb); err != nil {
		t.Fatal(err)
	}
	if string(pb) != string(fb) {
		t.Error("memory contents diverge between parent and fork")
	}
	// A functional write in the fork privatises exactly one frame and
	// never leaks into the parent.
	base := ff.Mem.BytesCopied()
	if err := ff.Store(pid, 5, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	if got := ff.Mem.BytesCopied() - base; got != arch.PageSize {
		t.Errorf("fork write privatised %d bytes, want %d", got, arch.PageSize)
	}
	if err := pf.Load(pid, 5, pb[:1]); err != nil {
		t.Fatal(err)
	}
	if pb[0] != byte(5*31) {
		t.Errorf("fork write leaked into parent: %#x", pb[0])
	}
}

func TestSnapshotPanicsMidFlight(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 4096
	cfg.OMSInitialFrames = 4
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := f.VM.NewProcess()
	if err := f.VM.MapAnon(p, 0, 1); err != nil {
		t.Fatal(err)
	}
	port := f.NewPort()
	c := cpu.New(f.Engine, port, p.PID, cpu.NewSliceTrace([]cpu.Instr{{Kind: cpu.Load}}))
	c.Run(0)
	// The engine has pending events: capture must refuse.
	defer func() {
		if recover() == nil {
			t.Error("Snapshot() of a mid-flight framework did not panic")
		}
	}()
	f.Snapshot()
}
