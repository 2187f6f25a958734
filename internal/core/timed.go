package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
)

// This file implements the timed memory-access operations of §4.3 as seen
// by a CPU port: translation, the read path, and the one timed store,
// Framework.write, which issues every write kind a backend's ResolveWrite
// reports (plain/simple, overlaying, conventional COW, VBI remap).
// Structural state changes are shared with the functional path via
// ResolveWrite, so the timed simulation and functional contents can
// never diverge.
//
// Per-access state (issue cycle, completion continuation, resolved
// target) lives in the framework's portAccess slab; the translation,
// write-step and completion events are pre-bound ArgEvent continuations
// carrying the slab index, so issuing an access allocates nothing.

// Read performs a timed load of the line containing va; done fires when
// the data reaches the core. It panics on a true fault (unmapped page) —
// workloads are expected to map their footprints. Translation (target
// tag and latency) is the backend's; the access bookkeeping is shared.
func (p *Port) Read(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	target, lat := f.backend.Translate(p, pid, va)
	idx, a := f.newAccess()
	a.start, a.done, a.target = f.Engine.Now(), done, target
	f.Engine.Schedule(lat, sim.Bind(f.readFireFn, uint64(idx)))
}

// ReadOverlay performs a timed load of the overlay line containing va
// through the overlay computation model of §5.2: the access is generated
// by hardware that is already iterating the page's OBitVector, so it
// addresses the Overlay Address Space directly and pays only the OMT
// cache's hit latency instead of a TLB translation. The line must be in
// the page's overlay.
func (p *Port) ReadOverlay(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	opn := arch.OverlayPage(pid, va.Page())
	if !f.OMTTable.Get(opn).OBits.Has(va.Line()) {
		panic(fmt.Sprintf("core: ReadOverlay of line outside overlay at pid %d va %#x", pid, uint64(va)))
	}
	// The streaming engine reads a page's OBitVector once, when the walk
	// enters the page; subsequent lines of the same page pay nothing.
	var lat sim.Cycle
	if opn != p.lastOverlayOPN {
		_, lat = f.OMTCache.Lookup(opn)
		p.lastOverlayOPN = opn
	}
	target := opn.LineAddr(va.Line())
	// The overlay computation model knows the OBitVector it is iterating:
	// stream the upcoming overlay lines and prime the next page's OMT
	// entry ahead of the walk.
	p.extendOverlayPrefetch(opn, va.Line())
	f.primeNextOMTEntry(opn)
	idx, a := f.newAccess()
	a.start, a.done, a.target = f.Engine.Now(), done, target
	f.Engine.Schedule(lat, sim.Bind(f.readFireFn, uint64(idx)))
}

// Write performs a timed store to the line containing va; done fires when
// the store completes at the L1 (after any overlaying-write remap or COW
// resolution on its critical path). The backend charges the translation
// latency here; the pre-bound writeFireFn runs Framework.write once it
// has passed.
func (p *Port) Write(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	_, lat := f.backend.Translate(p, pid, va)
	idx, a := f.newAccess()
	a.start, a.done, a.pid, a.va = f.Engine.Now(), done, pid, va
	f.Engine.Schedule(lat, sim.Bind(f.writeFireFn, uint64(idx)))
}

// write continues the timed store in access slot idx after translation:
// the backend resolves it structurally, then the store is issued at the
// resolved cache tag behind whatever remap, trap or copy its kind puts
// on the critical path. Each later step is a pre-bound method carrying
// the slot index (a COW copy's line fetches also carry the line), so no
// arm allocates.
func (f *Framework) write(idx uint64) {
	a := &f.acc[idx]
	proc, ok := f.VM.Process(a.pid)
	if !ok {
		panic(fmt.Sprintf("core: no process %d", a.pid))
	}
	res, err := f.backend.ResolveWrite(proc, a.va.Page(), a.va.Line())
	if err != nil {
		panic(err)
	}
	a.target, a.src = res.loc.cacheAddr, res.srcCacheAddr
	switch res.kind {
	case writePlain, writeSimpleOverlay:
		f.store(idx)

	case writeOverlaying:
		// §4.3.3: fetch the source line (read-for-ownership), retag the
		// block into the Overlay Address Space, pay the coherence round,
		// then the store completes. The fetch is the application's own
		// write-allocate miss; the remap adds OverlayRemapLatency.
		f.Hier.Access(a.src, true, sim.Bind(f.retagFn, idx))

	case writeCOWCopy:
		// Conventional copy-on-write (§2.2): trap into the OS, copy all 64
		// lines of the page, shoot down the TLBs, then retry the store on
		// the new page.
		f.Engine.Schedule(f.Config.COWTrapLatency, sim.Bind(f.copyPageFn, idx))

	case writeCOWReuse:
		// Last sharer: the OS only flips permissions, but still traps and
		// shoots down stale TLB entries.
		f.Engine.Schedule(f.Config.COWTrapLatency, sim.Bind(f.shootdownFn, idx))

	case writeVBIRemap:
		// The controller remaps the block: the store stalls only for the
		// MTL update round-trip. The old frame's contents move to the new
		// frame in the background — the copy posts 64 line writes to DRAM
		// instead of waiting for them (they still compete with later
		// misses for the controller), and the virtual tags mean no cached
		// line moves or invalidates.
		dstPage := arch.PhysAddrOf(res.loc.ppn, 0)
		if res.srcCacheAddr != dstPage { // full copy, not a last-sharer reuse
			for i := 0; i < arch.LinesPerPage; i++ {
				f.DRAM.Write(dstPage + arch.PhysAddr(i<<arch.LineShift))
			}
		}
		f.Engine.Schedule(f.Config.VBIRemapLatency, sim.Bind(f.storeFn, idx))

	default:
		panic("core: unknown write kind")
	}
}

// retag runs once an overlaying write's source line is in the L1: the
// block moves into the Overlay Address Space and the store completes
// after the coherence round.
func (f *Framework) retag(idx uint64) {
	a := &f.acc[idx]
	f.Hier.Retag(a.src, a.target)
	f.Engine.Schedule(f.Config.OverlayRemapLatency, sim.Bind(f.accDoneFn, idx))
}

// copyPage is a COW copy's trap handler: it issues the reads of all 64
// source lines in line order, with full memory-level parallelism.
func (f *Framework) copyPage(idx uint64) {
	srcPage := f.acc[idx].src.PageAligned()
	for i := 0; i < arch.LinesPerPage; i++ {
		src := srcPage + arch.PhysAddr(i<<arch.LineShift)
		f.Hier.Access(src, false, sim.Bind(f.copyLineFn, idx*arch.LinesPerPage+uint64(i)))
	}
}

// copyLine completes one line of a COW copy (arg packs slot and line):
// the destination line is produced into the cache, and the last line
// runs the shootdown.
func (f *Framework) copyLine(arg uint64) {
	idx, line := arg/arch.LinesPerPage, arg%arch.LinesPerPage
	a := &f.acc[idx]
	f.Hier.Install(a.target.PageAligned()+arch.PhysAddr(line<<arch.LineShift), true)
	if a.copied++; a.copied == arch.LinesPerPage {
		f.shootdown(idx)
	}
}

// shootdown invalidates the stored page in every TLB, then retries the
// store after the protocol's critical-path cost.
func (f *Framework) shootdown(idx uint64) {
	a := &f.acc[idx]
	cost := f.shootdownAll(a.pid, a.va.Page())
	f.Engine.Schedule(cost, sim.Bind(f.storeFn, idx))
}

// store issues the store itself at its resolved cache tag.
func (f *Framework) store(idx uint64) {
	f.Hier.Access(f.acc[idx].target, true, sim.Bind(f.accDoneFn, idx))
}

// shootdownAll invalidates (pid, vpn) in every port's TLB and returns the
// critical-path cost of the shootdown protocol (paid once).
func (f *Framework) shootdownAll(pid arch.PID, vpn arch.VPN) sim.Cycle {
	var cost sim.Cycle
	for _, port := range f.ports {
		c := port.TLB.Shootdown(pid, vpn)
		if c > cost {
			cost = c
		}
	}
	return cost
}
