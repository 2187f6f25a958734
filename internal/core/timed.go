package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/sim"
)

// This file implements the timed memory-access operations of §4.3 as seen
// by a CPU port: translation, the read path, and the one timed store,
// Port.write, which issues every write kind a backend's ResolveWrite
// reports (plain/simple, overlaying, conventional COW, VBI remap).
// Structural state changes are shared with the functional path via
// ResolveWrite, so the timed simulation and functional contents can
// never diverge.
//
// Per-access state (issue cycle, completion continuation, resolved
// target) lives in the framework's portAccess slab; the translation and
// completion events are pre-bound ArgEvent continuations carrying the
// slab index, so issuing an access allocates nothing.

// Read performs a timed load of the line containing va; done fires when
// the data reaches the core. It panics on a true fault (unmapped page) —
// workloads are expected to map their footprints.
func (p *Port) Read(pid arch.PID, va arch.VirtAddr, done func()) {
	p.ReadCont(pid, va, sim.ContOf(done))
}

// ReadCont is the continuation form of Read. Translation (target tag and
// latency) is the backend's; the access bookkeeping is shared.
func (p *Port) ReadCont(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	target, lat := f.backend.Translate(p, pid, va)
	idx, a := f.newAccess()
	a.start, a.done, a.target = f.Engine.Now(), done, target
	f.Engine.ScheduleArg(lat, f.readFireFn, uint64(idx))
}

// ReadOverlay performs a timed load of the overlay line containing va
// through the overlay computation model of §5.2: the access is generated
// by hardware that is already iterating the page's OBitVector, so it
// addresses the Overlay Address Space directly and pays only the OMT
// cache's hit latency instead of a TLB translation. The line must be in
// the page's overlay.
func (p *Port) ReadOverlay(pid arch.PID, va arch.VirtAddr, done func()) {
	p.ReadOverlayCont(pid, va, sim.ContOf(done))
}

// ReadOverlayCont is the continuation form of ReadOverlay.
func (p *Port) ReadOverlayCont(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
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
	f.Engine.ScheduleArg(lat, f.readFireFn, uint64(idx))
}

// Write performs a timed store to the line containing va; done fires when
// the store completes at the L1 (after any overlaying-write remap or COW
// resolution on its critical path).
func (p *Port) Write(pid arch.PID, va arch.VirtAddr, done func()) {
	p.WriteCont(pid, va, sim.ContOf(done))
}

// WriteCont is the continuation form of Write. The backend charges the
// translation latency here; the pre-bound writeFireFn runs write once it
// has passed.
func (p *Port) WriteCont(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	_, lat := f.backend.Translate(p, pid, va)
	idx, a := f.newAccess()
	a.start, a.done, a.port, a.pid, a.va = f.Engine.Now(), done, p, pid, va
	f.Engine.ScheduleArg(lat, f.writeFireFn, uint64(idx))
}

// write continues a timed store after translation: the backend resolves
// it structurally, then the store is issued at the resolved cache tag
// behind whatever remap, trap or copy its kind puts on the critical
// path; done fires when it completes at the L1. Plain and simple
// stores allocate nothing; the overlaying, COW and remap arms schedule
// closures.
func (p *Port) write(pid arch.PID, va arch.VirtAddr, done sim.Cont) {
	f := p.f
	proc, ok := f.VM.Process(pid)
	if !ok {
		panic(fmt.Sprintf("core: no process %d", pid))
	}
	vpn := va.Page()
	res, err := f.backend.ResolveWrite(proc, vpn, va.Line())
	if err != nil {
		panic(err)
	}
	switch res.kind {
	case writePlain, writeSimpleOverlay:
		f.Hier.AccessCont(res.loc.cacheAddr, true, done)

	case writeOverlaying:
		// §4.3.3: fetch the source line (read-for-ownership), retag the
		// block into the Overlay Address Space, pay the coherence round,
		// then the store completes. The fetch is the application's own
		// write-allocate miss; the remap adds OverlayRemapLatency.
		f.Hier.Access(res.srcCacheAddr, true, func() {
			f.Hier.Retag(res.srcCacheAddr, res.loc.cacheAddr)
			f.Engine.ScheduleCont(f.Config.OverlayRemapLatency, done)
		})

	case writeCOWCopy:
		// Conventional copy-on-write (§2.2): trap into the OS, copy all 64
		// lines of the page (reads issued with full memory-level
		// parallelism; destination lines are produced into the cache),
		// shoot down the TLBs, then retry the store on the new page.
		srcPage := res.srcCacheAddr.PageAligned()
		dstPage := res.loc.cacheAddr.PageAligned()
		f.Engine.Schedule(f.Config.COWTrapLatency, func() {
			remaining := arch.LinesPerPage
			for i := 0; i < arch.LinesPerPage; i++ {
				i := i
				src := srcPage + arch.PhysAddr(i<<arch.LineShift)
				f.Hier.Access(src, false, func() {
					f.Hier.Install(dstPage+arch.PhysAddr(i<<arch.LineShift), true)
					remaining--
					if remaining == 0 {
						cost := p.shootdownAll(pid, vpn)
						f.Engine.Schedule(cost, func() {
							f.Hier.AccessCont(res.loc.cacheAddr, true, done)
						})
					}
				})
			}
		})

	case writeCOWReuse:
		// Last sharer: the OS only flips permissions, but still traps and
		// shoots down stale TLB entries.
		f.Engine.Schedule(f.Config.COWTrapLatency, func() {
			cost := p.shootdownAll(pid, vpn)
			f.Engine.Schedule(cost, func() {
				f.Hier.AccessCont(res.loc.cacheAddr, true, done)
			})
		})

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
				f.DRAM.Write(dstPage+arch.PhysAddr(i<<arch.LineShift), nil)
			}
		}
		f.Engine.Schedule(f.Config.VBIRemapLatency, func() {
			f.Hier.AccessCont(res.loc.cacheAddr, true, done)
		})

	default:
		panic("core: unknown write kind")
	}
}

// shootdownAll invalidates (pid, vpn) in every port's TLB and returns the
// critical-path cost of the shootdown protocol (paid once).
func (p *Port) shootdownAll(pid arch.PID, vpn arch.VPN) sim.Cycle {
	var cost sim.Cycle
	for _, port := range p.f.ports {
		c := port.TLB.Shootdown(pid, vpn)
		if c > cost {
			cost = c
		}
	}
	return cost
}
