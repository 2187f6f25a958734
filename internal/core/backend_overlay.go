package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// overlayBackend is the paper's page-overlay framework (§3–§4): the
// direct virtual-to-overlay mapping, OBitVector-extended TLB entries, the
// Overlay Mapping Table with its controller cache, and the compact
// Overlay Memory Store. It is the default backend. It embeds the
// conventional baseline for what page overlays leave unchanged: pages
// without an overlay resolve stores through the baseline's trap-and-copy
// tail, and the backend keeps no private snapshot state.
type overlayBackend struct {
	baselineBackend
}

func init() {
	RegisterBackend("overlay", func(f *Framework) TranslationBackend {
		return &overlayBackend{baselineBackend{f: f}}
	})
}

func (b *overlayBackend) Name() string { return "overlay" }

// Walk implements the TLB's page-walk interface: the 1000-cycle walk
// reads the page tables and, for overlay-enabled pages, the OMT entry
// that supplies the OBitVector.
func (b *overlayBackend) Walk(pid arch.PID, vpn arch.VPN) (tlb.Entry, sim.Cycle, bool) {
	f := b.f
	lat := f.Config.TLB.WalkLatency
	proc, ok := f.VM.Process(pid)
	if !ok {
		return tlb.Entry{}, lat, false
	}
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return tlb.Entry{}, lat, false
	}
	e := tlb.Entry{
		PPN:        pte.PPN,
		COW:        pte.COW,
		Writable:   pte.Writable,
		HasOverlay: pte.Overlay,
	}
	if pte.Overlay || pte.Shadow {
		e.OBits = f.OMTTable.Get(arch.OverlayPage(pid, vpn)).OBits
	}
	return e, lat, true
}

// Translate tags a timed access: lines present in the page's overlay
// are tagged in the Overlay Address Space, everything else at the
// regular physical address.
func (b *overlayBackend) Translate(p *Port, pid arch.PID, va arch.VirtAddr) (arch.PhysAddr, sim.Cycle) {
	entry, lat, ok := p.TLB.Lookup(pid, va.Page())
	if !ok {
		panic(fmt.Sprintf("core: timed access fault at pid %d va %#x", pid, uint64(va)))
	}
	line := va.Line()
	var target arch.PhysAddr
	if entry.HasOverlay && entry.OBits.Has(line) {
		target = arch.OverlayPage(pid, va.Page()).LineAddr(line)
	} else {
		target = arch.PhysAddrOf(entry.PPN, uint64(line)<<arch.LineShift)
	}
	return target, lat
}

// ResolveRead locates the bytes a load of (pid, vpn, line) must return.
func (b *overlayBackend) ResolveRead(proc *vm.Process, vpn arch.VPN, line int) (lineLoc, error) {
	f := b.f
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return lineLoc{}, fmt.Errorf("core: read fault at pid %d vpn %#x", proc.PID, uint64(vpn))
	}
	if pte.Overlay && !pte.Shadow {
		opn := arch.OverlayPage(proc.PID, vpn)
		entry := f.OMTTable.Get(opn)
		if entry.OBits.Has(line) {
			return f.overlayLineLoc(opn, &entry, line)
		}
	}
	return physLineLoc(pte.PPN, line), nil
}

// ResolveWrite performs the structural state changes a store to
// (proc, vpn, line) requires — overlay creation, OMT/TLB updates, or a
// conventional COW page copy — and reports what happened. It does not
// write the payload bytes.
func (b *overlayBackend) ResolveWrite(proc *vm.Process, vpn arch.VPN, line int) (writeResolution, error) {
	f := b.f
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return writeResolution{}, fmt.Errorf("core: write fault at pid %d vpn %#x", proc.PID, uint64(vpn))
	}
	opn := arch.OverlayPage(proc.PID, vpn)

	if pte.Overlay && !pte.Shadow {
		entry := f.OMTTable.Ref(opn)
		if entry.OBits.Has(line) {
			loc, err := f.overlayLineLoc(opn, entry, line)
			if err != nil {
				return writeResolution{}, err
			}
			*f.simpleOvlWrites++
			return writeResolution{kind: writeSimpleOverlay, loc: loc}, nil
		}
		if pte.COW || !pte.Writable {
			// Overlaying write: copy the line into a fresh overlay slot and
			// remap it with a single-line coherence update.
			src := physLineLoc(pte.PPN, line)
			loc, err := f.overlayInsert(proc.PID, vpn, entry, line, &pte.PPN)
			if err != nil {
				return writeResolution{}, err
			}
			*f.overlayingWr++
			return writeResolution{kind: writeOverlaying, loc: loc, srcCacheAddr: src.cacheAddr}, nil
		}
		// Overlay-enabled but writable and line not in overlay: plain.
		*f.plainWrites++
		return writeResolution{kind: writePlain, loc: physLineLoc(pte.PPN, line)}, nil
	}

	return b.resolveWriteTail(proc, pte, vpn, line)
}

// Fetch implements the memory controller of Fig. 6: regular addresses go
// straight to DRAM; overlay addresses are resolved through the OMT cache
// and the Overlay Memory Store's segment metadata.
func (b *overlayBackend) Fetch(addr arch.PhysAddr, done sim.Cont) {
	f := b.f
	if !addr.IsOverlay() {
		f.DRAM.Read(addr, done)
		return
	}
	opn := arch.OverlayPageOf(addr)
	entry, lat := f.OMTCache.Lookup(opn)
	idx, r := f.newOvl()
	r.entry, r.line, r.done = entry, addr.Line(), done
	f.Engine.Schedule(lat, sim.Bind(f.ovlFetchFn, uint64(idx)))
}

func (b *overlayBackend) WriteBack(addr arch.PhysAddr) {
	f := b.f
	if !addr.IsOverlay() {
		f.DRAM.Write(addr)
		return
	}
	opn := arch.OverlayPageOf(addr)
	entry, lat := f.OMTCache.Lookup(opn)
	idx, r := f.newOvl()
	r.entry, r.line, r.done = entry, addr.Line(), sim.Cont{}
	f.Engine.Schedule(lat, sim.Bind(f.ovlWBFn, uint64(idx)))
}

// OnMiss feeds L2 demand misses to the stream prefetcher (for both
// regular and overlay addresses — overlay lines form streams in the
// Overlay Address Space just as well) and, for overlay misses, primes the
// memory controller's OMT cache with the next overlay-bearing page so
// page-sequential overlay traffic never exposes the 1000-cycle OMT walk
// on demand. The OBitVector-walking prefetcher of the overlay computation
// model is driven from Port.ReadOverlay instead (§5.2 accesses only).
func (b *overlayBackend) OnMiss(addr arch.PhysAddr) {
	f := b.f
	if !addr.IsOverlay() {
		f.Prefetch.OnMiss(addr)
		return
	}
	// Overlay miss: the controller holds the page's OBitVector, so it
	// feeds the stream prefetcher only when the overlay is dense enough
	// for unit-stride streams to be real lines — on sparse overlays a
	// blind stream would fetch mostly absent (zero-fill) lines and
	// pollute the L3. Sparse overlays are covered by the OBitVector
	// walker on the §5.2 path instead.
	opn := arch.OverlayPageOf(addr)
	if f.OMTTable.Get(opn).OBits.Count() >= arch.LinesPerPage*3/4 {
		f.Prefetch.OnMiss(addr)
	}
	f.primeNextOMTEntry(opn)
}

// Fork clones the process with either conventional copy-on-write
// (overlayMode=false) or overlay-on-write (overlayMode=true) semantics,
// flushing the parent's now-stale TLB entries. Because no two virtual
// pages may share an overlay (§4.1), any overlay lines the parent already
// has are copied into per-child overlays so the child observes the
// parent's full fork-time contents.
func (b *overlayBackend) Fork(parent *vm.Process, overlayMode bool) *vm.Process {
	f := b.f
	child := f.VM.Fork(parent, overlayMode)
	var copyErr error
	parent.Table.Range(func(vpn arch.VPN, _ vm.PTE) bool {
		src := f.OMTTable.Get(arch.OverlayPage(parent.PID, vpn))
		if src.OBits.Empty() {
			return true
		}
		dstEntry := f.OMTTable.Ref(arch.OverlayPage(child.PID, vpn))
		var buf [arch.LineSize]byte
		for _, line := range src.OBits.Lines() {
			slot, ok := f.OMS.LocateLine(src.SegBase, line)
			if !ok {
				continue
			}
			f.OMS.ReadLineData(slot, buf[:])
			loc, err := f.overlayInsert(child.PID, vpn, dstEntry, line, nil)
			if err != nil {
				copyErr = err
				return false
			}
			f.Mem.WriteLine(loc.ppn, int(loc.off>>arch.LineShift), buf[:])
		}
		return true
	})
	if copyErr != nil {
		panic(fmt.Sprintf("core: fork overlay copy: %v", copyErr))
	}
	for _, p := range f.ports {
		p.TLB.FlushPID(parent.PID)
	}
	return child
}

// MetadataBytes models the page tables plus the OMT (16 B per live
// entry: OBitVector + segment base). All other overlay state lives in
// shared components (OMT table, OMT cache, OMS, port cursors) that the
// framework snapshot captures, so the baseline's empty SnapshotState
// serves.
func (b *overlayBackend) MetadataBytes() int {
	return b.baselineBackend.MetadataBytes() + b.f.OMTTable.Count()*16
}
