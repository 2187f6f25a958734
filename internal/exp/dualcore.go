package exp

import (
	"context"
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/coherence"
	"repro/internal/harness"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// This file holds the multi-core extension experiment: the paper's
// Figures 8/9 idle the forked child, so the single-line TLB update of
// §4.3.3 is never stressed by a *running* sharer. Here both processes run
// on separate cores of a MESI domain. The writer diverges a shared page
// line by line while the reader keeps accessing it; we compare the
// overlaying-read-exclusive protocol (coherence-delivered OBitVector
// updates) against conventional remaps (full TLB shootdowns that also
// stall the reader).

// DualCoreResult compares one divergence of a 64-line shared page.
type DualCoreResult struct {
	Mechanism     string
	WriterCycles  sim.Cycle // writer's time to diverge all 64 lines
	ReaderCycles  sim.Cycle // reader's time for its interleaved reads
	Shootdowns    uint64
	LineUpdates   uint64
	Invalidations uint64
}

type dualMem struct {
	engine *sim.Engine
	lat    sim.Cycle
}

func (m *dualMem) Fetch(addr arch.PhysAddr, done sim.Cont) { m.engine.Schedule(m.lat, done) }
func (m *dualMem) WriteBack(arch.PhysAddr)                 {}

// tlbUpdater delivers OBitVector updates on overlaying-read-exclusive.
type tlbUpdater struct {
	tlbs []*tlb.TLB
	pid  arch.PID
	vpn  arch.VPN
}

func (u *tlbUpdater) OnReadExclusive(core int, addr arch.PhysAddr) {
	if !addr.IsOverlay() {
		return
	}
	for _, t := range u.tlbs {
		t.UpdateLine(u.pid, u.vpn, addr.Line(), true)
	}
}

type staticWalker struct {
	entry tlb.Entry
	lat   sim.Cycle
}

func (w staticWalker) Walk(arch.PID, arch.VPN) (tlb.Entry, sim.Cycle, bool) {
	return w.entry, w.lat, true
}

// RunDualCoreDivergence runs the divergence scenario under one mechanism.
// overlay=true uses overlaying-read-exclusive; false models the
// conventional remap: a page copy plus a TLB shootdown that stalls both
// cores, after which the reader's TLB refills with a page walk.
func RunDualCoreDivergence(overlay bool) DualCoreResult {
	engine := sim.NewEngine()
	ccfg := coherence.DefaultConfig()
	ccfg.Cores = 2
	mem := &dualMem{engine: engine, lat: 100}
	domain := coherence.New(engine, ccfg, mem)

	tcfg := tlb.DefaultConfig()
	const (
		pid arch.PID = 1
		vpn arch.VPN = 0x40
		ppn arch.PPN = 0x80
	)
	walker := staticWalker{
		entry: tlb.Entry{PPN: ppn, COW: true, HasOverlay: overlay},
		lat:   tcfg.WalkLatency,
	}
	tlbs := []*tlb.TLB{
		tlb.New(tcfg, walker, &engine.Stats),
		tlb.New(tcfg, walker, &engine.Stats),
	}
	if overlay {
		domain.SetListener(&tlbUpdater{tlbs: tlbs, pid: pid, vpn: vpn})
	}
	opn := arch.OverlayPage(pid, vpn)
	physLine := func(l int) arch.PhysAddr { return arch.PhysAddrOf(ppn, uint64(l)<<arch.LineShift) }

	// Both cores warm the shared page.
	for _, t := range tlbs {
		t.Lookup(pid, vpn)
	}
	for l := 0; l < arch.LinesPerPage; l++ {
		for c := 0; c < 2; c++ {
			domain.Read(c, physLine(l), sim.Cont{})
		}
	}
	engine.Run()

	var writerEnd, readerEnd sim.Cycle
	start := engine.Now()

	// Writer (core 0) diverges every line; reader (core 1) touches the
	// page between writes. Both issue their next op when the previous
	// completes — a tight producer/consumer interleaving.
	writerLine, readerOps := 0, 0
	var writeNext, readNext sim.Cont
	writeNext = sim.Bind(func(uint64) {
		if writerLine >= arch.LinesPerPage {
			writerEnd = engine.Now() - start
			return
		}
		l := writerLine
		writerLine++
		if overlay {
			// Overlaying write: gain exclusive ownership of the source
			// line, retag to the overlay address, update TLBs via the
			// coherence message (listener), then continue.
			domain.ReadExclusive(0, physLine(l), sim.Bind(func(uint64) {
				domain.Write(0, opn.LineAddr(l), writeNext)
			}, 0))
			return
		}
		// Conventional: first write triggers copy (once per page) — here
		// already paid — then every line write is a plain coherent write,
		// but the initial remap shot down both TLBs.
		if l == 0 {
			// Page copy: read all 64 source lines (overlapped), then
			// shoot down both TLBs; the reader will re-walk.
			remaining := arch.LinesPerPage
			for i := 0; i < arch.LinesPerPage; i++ {
				domain.Read(0, physLine(i), sim.Bind(func(uint64) {
					remaining--
					if remaining == 0 {
						var cost sim.Cycle
						for _, t := range tlbs {
							if c := t.Shootdown(pid, vpn); c > cost {
								cost = c
							}
						}
						engine.Schedule(cost, sim.Bind(func(uint64) {
							domain.Write(0, physLine(l)+arch.PhysAddr(1<<20), writeNext)
						}, 0))
					}
				}, 0))
			}
			return
		}
		domain.Write(0, physLine(l)+arch.PhysAddr(1<<20), writeNext)
	}, 0)
	readNext = sim.Bind(func(uint64) {
		if writerLine >= arch.LinesPerPage && readerOps > 0 {
			readerEnd = engine.Now() - start
			return
		}
		readerOps++
		l := readerOps % arch.LinesPerPage
		// The reader translates first: after a shootdown this is a 1000+
		// cycle walk; after a line update it is an L1 TLB hit.
		_, lat, _ := tlbs[1].Lookup(pid, vpn)
		engine.Schedule(lat, sim.Bind(func(uint64) {
			domain.Read(1, physLine(l), readNext)
		}, 0))
	}, 0)
	writeNext.Invoke()
	readNext.Invoke()
	engine.Run()
	if readerEnd == 0 {
		readerEnd = engine.Now() - start
	}

	name := "overlay-read-exclusive"
	if !overlay {
		name = "copy+shootdown"
	}
	return DualCoreResult{
		Mechanism:     name,
		WriterCycles:  writerEnd,
		ReaderCycles:  readerEnd,
		Shootdowns:    engine.Stats.Get("tlb.shootdowns"),
		LineUpdates:   engine.Stats.Get("tlb.line_updates"),
		Invalidations: engine.Stats.Get("coherence.invalidations"),
	}
}

// RunDualCorePool runs both divergence mechanisms (overlay
// read-exclusive first, then copy+shootdown — the order PrintDualCore
// expects) as two pool jobs; each builds its own engine and MESI
// domain.
func RunDualCorePool(ctx context.Context, pool Pool) ([]DualCoreResult, error) {
	return harness.Map(ctx, pool.opts("dualcore"), []bool{true, false},
		func(_ context.Context, overlay bool, _ int) (DualCoreResult, error) {
			return RunDualCoreDivergence(overlay), nil
		})
}

// PrintDualCore renders the extension experiment.
func PrintDualCore(w io.Writer, results []DualCoreResult) {
	fmt.Fprintln(w, "Extension: page divergence with BOTH processes running (2-core MESI domain)")
	fmt.Fprintf(w, "%-24s %14s %14s %11s %12s\n", "mechanism", "writer cycles", "reader cycles", "shootdowns", "line updates")
	for _, r := range results {
		fmt.Fprintf(w, "%-24s %14d %14d %11d %12d\n",
			r.Mechanism, r.WriterCycles, r.ReaderCycles, r.Shootdowns, r.LineUpdates)
	}
	fmt.Fprintln(w, "(§4.3.3: the coherence-delivered OBitVector update replaces the TLB shootdown)")
}
