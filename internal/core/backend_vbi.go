package core

import (
	"fmt"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/vm"
)

// vbiBackend models the Virtual Block Interface (Hajinazar et al., ISCA
// 2020): caches are virtually tagged, so cores perform no translation at
// all — a load pays only the permission check folded into the L1 access.
// Translation is delegated to the memory translation layer (MTL) at the
// memory controller, which resolves LLC misses through a small mapping
// cache in front of flat per-block tables. Because tags never change
// when a block moves between physical frames, copy-on-write resolves as
// a controller-side remap: no OS trap, no TLB shootdown, no cache retag
// — the new frame is populated by a background copy that only costs
// DRAM bandwidth.
//
// The simulator reuses the Overlay Address Space encoding (pid, vpn,
// line packed under a tag bit) as VBI's virtual block tags: every cache
// access under this backend is tagged OverlayPage(pid, vpn).LineAddr(l),
// and the controller is the only place those tags meet physical frames.
// Walks, loads' functional resolution and the prefetcher feed are the
// embedded baseline's (no TLB miss ever reaches Walk, because VBI cores
// do not translate).
type vbiBackend struct {
	baselineBackend

	// mtl is the controller's mapping cache: set-associative exact-LRU
	// over (pid, vpn) → PPN.
	mtl      [][]mtlWay
	mtlClock uint64

	mtlHits      *uint64
	mtlMisses    *uint64
	blockCopies  *uint64
	remapReuses  *uint64
	staleFetches *uint64
}

type mtlWay struct {
	valid bool
	pid   arch.PID
	vpn   arch.VPN
	ppn   arch.PPN
	stamp uint64
}

const mtlWays = 8

func init() {
	RegisterBackend("vbi", func(f *Framework) TranslationBackend {
		b := &vbiBackend{
			baselineBackend: baselineBackend{f: f},
			mtlHits:         f.Engine.Stats.Counter("vbi.mtl_hits"),
			mtlMisses:       f.Engine.Stats.Counter("vbi.mtl_misses"),
			blockCopies:     f.Engine.Stats.Counter("vbi.block_copies"),
			remapReuses:     f.Engine.Stats.Counter("vbi.remap_reuses"),
			staleFetches:    f.Engine.Stats.Counter("vbi.stale_fetches"),
		}
		sets := f.Config.VBIMTLEntries / mtlWays
		if sets < 1 {
			sets = 1
		}
		b.mtl = make([][]mtlWay, sets)
		backing := make([]mtlWay, sets*mtlWays)
		for i := range b.mtl {
			b.mtl[i], backing = backing[:mtlWays], backing[mtlWays:]
		}
		return b
	})
}

func (b *vbiBackend) Name() string { return "vbi" }

func vbiTag(pid arch.PID, vpn arch.VPN, line int) arch.PhysAddr {
	return arch.OverlayPage(pid, vpn).LineAddr(line)
}

// vbiLineLoc locates a line of a virtual block: the bytes live in frame
// ppn, the caches hold them at the block's virtual tag.
func vbiLineLoc(pid arch.PID, vpn arch.VPN, ppn arch.PPN, line int) lineLoc {
	loc := physLineLoc(ppn, line)
	loc.cacheAddr = vbiTag(pid, vpn, line)
	return loc
}

func (b *vbiBackend) mtlSet(pid arch.PID, vpn arch.VPN) []mtlWay {
	h := (uint64(vpn) ^ uint64(pid)<<4) % uint64(len(b.mtl))
	return b.mtl[h]
}

func (b *vbiBackend) mtlLookup(pid arch.PID, vpn arch.VPN) (arch.PPN, bool) {
	s := b.mtlSet(pid, vpn)
	for i := range s {
		if s[i].valid && s[i].pid == pid && s[i].vpn == vpn {
			b.mtlClock++
			s[i].stamp = b.mtlClock
			return s[i].ppn, true
		}
	}
	return 0, false
}

// mtlInsert installs (or refreshes) a mapping, evicting the set's LRU.
func (b *vbiBackend) mtlInsert(pid arch.PID, vpn arch.VPN, ppn arch.PPN) {
	s := b.mtlSet(pid, vpn)
	victim := 0
	for i := range s {
		if s[i].valid && s[i].pid == pid && s[i].vpn == vpn {
			victim = i
			break
		}
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].stamp < s[victim].stamp {
			victim = i
		}
	}
	b.mtlClock++
	s[victim] = mtlWay{valid: true, pid: pid, vpn: vpn, ppn: ppn, stamp: b.mtlClock}
}

// Translate tags the access virtually; the only core-side cost is the
// permission check riding the L1 probe. Faults surface at the controller
// (an unmapped block has no translation when its miss arrives).
func (b *vbiBackend) Translate(p *Port, pid arch.PID, va arch.VirtAddr) (arch.PhysAddr, sim.Cycle) {
	return vbiTag(pid, va.Page(), va.Line()), b.f.Config.TLB.L1Latency
}

// ResolveWrite resolves stores through the flat block tables: writable
// blocks store in place; shared (COW) blocks are remapped by the
// controller with a background copy — VBI's no-trap, no-shootdown CoW.
// The store is issued at the block's virtual tag, so loc.cacheAddr is
// the tag; loc.ppn names the frame, and srcCacheAddr is the base of the
// frame the block left (the same frame on a last-sharer reuse).
func (b *vbiBackend) ResolveWrite(proc *vm.Process, vpn arch.VPN, line int) (writeResolution, error) {
	f := b.f
	pte, ok := proc.Table.Get(vpn)
	if !ok {
		return writeResolution{}, fmt.Errorf("core: write fault at pid %d vpn %#x", proc.PID, uint64(vpn))
	}
	if pte.Writable {
		*f.plainWrites++
		return writeResolution{kind: writePlain, loc: vbiLineLoc(proc.PID, vpn, pte.PPN, line)}, nil
	}
	if pte.COW {
		oldPPN := pte.PPN
		ppn, copied, err := f.VM.BreakCOW(proc, vpn)
		if err != nil {
			return writeResolution{}, err
		}
		// The controller performed the remap; its mapping cache holds the
		// fresh translation.
		b.mtlInsert(proc.PID, vpn, ppn)
		if copied {
			*b.blockCopies++
		} else {
			*b.remapReuses++
		}
		return writeResolution{
			kind:         writeVBIRemap,
			loc:          vbiLineLoc(proc.PID, vpn, ppn, line),
			srcCacheAddr: arch.PhysAddrOf(oldPPN, 0),
		}, nil
	}
	return writeResolution{}, fmt.Errorf("core: protection fault: write to read-only pid %d vpn %#x", proc.PID, uint64(vpn))
}

// translate resolves a virtual-block line at the controller: MTL cache
// probe, then a flat block-table walk on a miss. It returns the line's
// frame address and the MTL latency; ok is false if the block is
// unmapped (e.g. the owner exited with lines in flight).
func (b *vbiBackend) translate(addr arch.PhysAddr) (target arch.PhysAddr, lat sim.Cycle, ok bool) {
	f := b.f
	pid, vpn := arch.SplitOverlayPage(arch.OverlayPageOf(addr))
	ppn, hit := b.mtlLookup(pid, vpn)
	lat = f.Config.VBIMTLHitLatency
	if hit {
		*b.mtlHits++
	} else {
		*b.mtlMisses++
		lat = f.Config.VBIMTLMissLatency
		if ppn, ok = b.tableWalk(pid, vpn); !ok {
			*b.staleFetches++
			return 0, lat, false
		}
		b.mtlInsert(pid, vpn, ppn)
	}
	return arch.PhysAddrOf(ppn, uint64(addr.Line())<<arch.LineShift), lat, true
}

// Fetch translates a virtual-block miss at the controller, then reads
// the frame's line; an unmapped block zero-fills after the failed walk.
func (b *vbiBackend) Fetch(addr arch.PhysAddr, done sim.Cont) {
	if !addr.IsOverlay() {
		b.f.DRAM.Read(addr, done)
		return
	}
	target, lat, ok := b.translate(addr)
	if !ok {
		b.f.Engine.Schedule(lat, done)
		return
	}
	b.f.readAfter(lat, target, done)
}

func (b *vbiBackend) WriteBack(addr arch.PhysAddr) {
	if !addr.IsOverlay() {
		b.f.DRAM.Write(addr)
		return
	}
	if target, _, ok := b.translate(addr); ok {
		b.f.DRAM.Write(target)
	}
}

func (b *vbiBackend) tableWalk(pid arch.PID, vpn arch.VPN) (arch.PPN, bool) {
	proc, ok := b.f.VM.Process(pid)
	if !ok {
		return 0, false
	}
	pte, ok := proc.Table.Get(vpn)
	return pte.PPN, ok
}

// Fork shares every page copy-on-write. No TLB flush is needed — cores
// hold no translations — and the parent's cached lines stay valid
// because their tags are virtual.
func (b *vbiBackend) Fork(parent *vm.Process, overlayMode bool) *vm.Process {
	return b.f.VM.Fork(parent, false)
}

// MetadataBytes models VBI's flat per-block tables (4 B per mapped
// block) plus the MTL mapping cache's tag store (16 B per entry).
func (b *vbiBackend) MetadataBytes() int {
	return b.f.VM.MappedPages()*4 + len(b.mtl)*mtlWays*16
}

// vbiSnapshot carries the MTL across Snapshot/NewFromSnapshot.
type vbiSnapshot struct {
	mtl      [][]mtlWay
	mtlClock uint64
}

func (s *vbiSnapshot) bytes() int {
	return int(unsafe.Sizeof(*s)) + len(s.mtl)*(24+mtlWays*int(unsafe.Sizeof(mtlWay{})))
}

func (b *vbiBackend) SnapshotState() any {
	s := &vbiSnapshot{mtlClock: b.mtlClock, mtl: make([][]mtlWay, len(b.mtl))}
	backing := make([]mtlWay, len(b.mtl)*mtlWays)
	for i := range b.mtl {
		s.mtl[i], backing = backing[:mtlWays], backing[mtlWays:]
		copy(s.mtl[i], b.mtl[i])
	}
	return s
}

func (b *vbiBackend) RestoreState(state any) {
	if state == nil {
		return
	}
	s := state.(*vbiSnapshot)
	b.mtlClock = s.mtlClock
	for i := range s.mtl {
		copy(b.mtl[i], s.mtl[i])
	}
}
