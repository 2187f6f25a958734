package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// baselineBackend is the conventional virtual-memory control (§2.2 of
// the paper): 4-level page walks, physically tagged caches, and trap-
// and-copy copy-on-write with full TLB shootdowns. Pages marked for
// overlays behave as ordinary COW pages, so compare runs isolate what
// the overlay (or any rival) mechanism buys.
//
// It is also the conventional implementation every other backend
// embeds: overlay, vbi and utopia override only the methods where their
// designs differ, so no rival can drift from the control it is measured
// against.
type baselineBackend struct {
	f *Framework
}

func init() {
	RegisterBackend("baseline", func(f *Framework) TranslationBackend {
		return &baselineBackend{f: f}
	})
}

func (b *baselineBackend) Name() string { return "baseline" }

// Walk fills a TLB entry from the page tables alone — no OBitVector, no
// overlay flag, whatever the PTE says about overlays.
func (b *baselineBackend) Walk(pid arch.PID, vpn arch.VPN) (tlb.Entry, sim.Cycle, bool) {
	lat := b.f.Config.TLB.WalkLatency
	proc, ok := b.f.VM.Process(pid)
	if !ok {
		return tlb.Entry{}, lat, false
	}
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return tlb.Entry{}, lat, false
	}
	return tlb.Entry{PPN: pte.PPN, COW: pte.COW, Writable: pte.Writable}, lat, true
}

func (b *baselineBackend) Translate(p *Port, pid arch.PID, va arch.VirtAddr) (arch.PhysAddr, sim.Cycle) {
	entry, lat, ok := p.TLB.Lookup(pid, va.Page())
	if !ok {
		panic(fmt.Sprintf("core: timed access fault at pid %d va %#x", pid, uint64(va)))
	}
	return arch.PhysAddrOf(entry.PPN, uint64(va.Line())<<arch.LineShift), lat
}

// ResolveRead reads through the page tables: the bytes always live in
// the mapped frame.
func (b *baselineBackend) ResolveRead(proc *vm.Process, vpn arch.VPN, line int) (lineLoc, error) {
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return lineLoc{}, fmt.Errorf("core: read fault at pid %d vpn %#x", proc.PID, uint64(vpn))
	}
	return physLineLoc(pte.PPN, line), nil
}

func (b *baselineBackend) ResolveWrite(proc *vm.Process, vpn arch.VPN, line int) (writeResolution, error) {
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return writeResolution{}, fmt.Errorf("core: write fault at pid %d vpn %#x", proc.PID, uint64(vpn))
	}
	return b.resolveWriteTail(proc, pte, vpn, line)
}

// resolveWriteTail is the no-overlay arm of write resolution: plain
// stores to writable pages, trap-and-copy (or last-sharer reuse) for COW
// pages, protection fault otherwise. The overlay backend funnels its
// non-overlay pages through the same code.
func (b *baselineBackend) resolveWriteTail(proc *vm.Process, pte vm.PTE, vpn arch.VPN, line int) (writeResolution, error) {
	f := b.f
	if pte.Writable {
		*f.plainWrites++
		return writeResolution{kind: writePlain, loc: physLineLoc(pte.PPN, line)}, nil
	}
	if pte.COW {
		ppn, copied, err := f.VM.BreakCOW(proc, vpn)
		if err != nil {
			return writeResolution{}, err
		}
		res := writeResolution{
			loc:          physLineLoc(ppn, line),
			srcCacheAddr: arch.PhysAddrOf(pte.PPN, 0),
		}
		if copied {
			res.kind = writeCOWCopy
			*f.cowCopies++
		} else {
			res.kind = writeCOWReuse
			*f.cowReuses++
		}
		return res, nil
	}
	return writeResolution{}, fmt.Errorf("core: protection fault: write to read-only pid %d vpn %#x", proc.PID, uint64(vpn))
}

// Fetch and WriteBack see only regular physical addresses (nothing tags
// lines into the Overlay Address Space under this backend).
func (b *baselineBackend) Fetch(addr arch.PhysAddr, done sim.Cont) {
	b.f.DRAM.Read(addr, done)
}

func (b *baselineBackend) WriteBack(addr arch.PhysAddr) {
	b.f.DRAM.Write(addr)
}

func (b *baselineBackend) OnMiss(addr arch.PhysAddr) {
	b.f.Prefetch.OnMiss(addr)
}

// Fork always shares copy-on-write — the conventional system has no
// overlay-on-write to offer — and flushes the parent's stale TLB
// entries.
func (b *baselineBackend) Fork(parent *vm.Process, overlayMode bool) *vm.Process {
	child := b.f.VM.Fork(parent, false)
	for _, p := range b.f.ports {
		p.TLB.FlushPID(parent.PID)
	}
	return child
}

// MetadataBytes is the page tables alone: 8 B per mapped PTE.
func (b *baselineBackend) MetadataBytes() int {
	return b.f.VM.MappedPages() * 8
}

func (b *baselineBackend) SnapshotState() any { return nil }

func (b *baselineBackend) RestoreState(any) {}
