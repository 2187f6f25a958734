// Package core implements the paper's primary contribution: the page
// overlay framework (§3–§4). It ties the unchanged virtual-memory
// substrate (internal/vm) to the overlay machinery — the direct
// virtual-to-overlay mapping, OBitVector-extended TLBs, the Overlay
// Mapping Table with its controller cache, and the compact Overlay Memory
// Store — and implements the three memory-access operations of §4.3
// (read, simple write, overlaying write), the promotion actions of
// §4.3.4, and the coherence-based single-line TLB update of §4.3.3.
//
// The framework is both functional and timed. Functional state (page and
// overlay bytes, OBitVectors, segment metadata) is updated eagerly so
// every technique built on top can be checked for value-correctness;
// timing flows through the TLB → L1 → L2 → L3 → DRAM chain with the
// Overlay Memory Store touched only on hierarchy misses and write-backs.
// One deliberate deviation from the paper is documented in DESIGN.md:
// OMS slots are allocated eagerly in zero simulated time rather than on
// the first dirty write-back; the paper's lazy allocation is a timing
// optimisation that our model preserves by charging no cycles for
// allocation.
package core

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/mem"
	"repro/internal/oms"
	"repro/internal/omt"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// Config collects every knob of the simulated system (Table 2 defaults).
type Config struct {
	MemoryPages      int // physical frames backing main memory
	OMSInitialFrames int // frames granted to the Overlay Memory Store at boot

	TLB      tlb.Config
	Cache    cache.HierarchyConfig
	DRAM     dram.Config
	OMTCache omt.CacheConfig
	Prefetch prefetch.Config

	// OverlayRemapLatency is the critical-path cost of an overlaying
	// write's remap: the cache-tag update plus the overlaying-read-
	// exclusive coherence round (§4.3.3). It replaces the full TLB
	// shootdown a conventional remap would need.
	OverlayRemapLatency sim.Cycle
	// COWTrapLatency is the OS entry/exit overhead of a conventional
	// copy-on-write page fault.
	COWTrapLatency sim.Cycle

	// Backend selects the translation backend ("" = "overlay"). See
	// TranslationBackend and Backends() for the registered designs.
	Backend string

	// VBI models the Virtual Block Interface's memory translation layer
	// (MTL) at the controller: a small mapping cache in front of the flat
	// per-block tables, plus the controller-side remap that replaces the
	// OS COW trap (caches are virtually tagged, so no core is disturbed).
	VBIMTLEntries     int       // MTL mapping-cache capacity (translations)
	VBIMTLHitLatency  sim.Cycle // MTL cache hit
	VBIMTLMissLatency sim.Cycle // flat block-table walk on MTL miss
	VBIRemapLatency   sim.Cycle // critical-path cost of a controller-side COW remap

	// Utopia's RestSeg: a hash-indexed restrictive set whose members
	// translate with a cheap computed walk; everything else falls back to
	// the conventional flexible walk (TLB.WalkLatency).
	UtopiaRestSets        int       // RestSeg sets
	UtopiaRestWays        int       // RestSeg associativity
	UtopiaRestWalkLatency sim.Cycle // walk cost for RestSeg-resident pages
}

// DefaultConfig returns the Table 2 system with 64 Ki frames (256 MB).
func DefaultConfig() Config {
	return Config{
		MemoryPages:         64 << 10,
		OMSInitialFrames:    8,
		TLB:                 tlb.DefaultConfig(),
		Cache:               cache.DefaultHierarchyConfig(),
		DRAM:                dram.DefaultConfig(),
		OMTCache:            omt.DefaultCacheConfig(),
		Prefetch:            prefetch.DefaultConfig(),
		OverlayRemapLatency: 50,
		COWTrapLatency:      1500,

		VBIMTLEntries:     1024,
		VBIMTLHitLatency:  10,
		VBIMTLMissLatency: 500,
		VBIRemapLatency:   200,

		UtopiaRestSets:        1024,
		UtopiaRestWays:        4,
		UtopiaRestWalkLatency: 150,
	}
}

// HardwareCost reproduces the §4.5 storage accounting: the bytes of new
// hardware state the overlay framework adds. For the paper's
// configuration this totals 94.5 KB (4 KB OMT cache + 8.5 KB of TLB
// OBitVectors + 82 KB of widened cache tags).
type HardwareCost struct {
	OMTCacheBytes  int // 512 bits per OMT cache entry
	TLBExtraBytes  int // 64-bit OBitVector per TLB entry
	TagExtraBytes  int // 16 extra tag bits per cache line
	OverheadsTotal int
}

// Cost computes the hardware overhead of a configuration.
func Cost(cfg Config) HardwareCost {
	var c HardwareCost
	// Each OMT cache entry: OPN (48) + OMS address (48) + OBitVector (64)
	// + 64 five-bit slot pointers (320) + free vector (32) = 512 bits.
	c.OMTCacheBytes = cfg.OMTCache.Entries * 512 / 8
	// Every L1 and L2 TLB entry gains a 64-bit OBitVector. The paper also
	// counts per-entry valid/aux bits, rounding 1088 entries to 8.5 KB.
	c.TLBExtraBytes = (cfg.TLB.L1Entries + cfg.TLB.L2Entries) * 8
	// Every cache tag widens by 16 bits for the overlay address space.
	lines := (cfg.Cache.L1.Size + cfg.Cache.L2.Size + cfg.Cache.L3.Size) / 64
	c.TagExtraBytes = lines * 2
	c.OverheadsTotal = c.OMTCacheBytes + c.TLBExtraBytes + c.TagExtraBytes
	return c
}

// Describe renders the configuration as the rows of Table 2.
func Describe(w io.Writer, cfg Config) {
	row := func(name, desc string) { fmt.Fprintf(w, "%-18s %s\n", name, desc) }
	row("Processor", "2.67 GHz, single issue, out-of-order, 64 entry instruction window, 64B cache lines")
	row("TLB", fmt.Sprintf("4K pages, %d-entry %d-way associative L1 (%d cycle), %d-entry L2 (%d cycles), TLB miss = %d cycles",
		cfg.TLB.L1Entries, cfg.TLB.L1Ways, cfg.TLB.L1Latency,
		cfg.TLB.L2Entries, cfg.TLB.L2Latency, cfg.TLB.WalkLatency))
	row("L1 Cache", fmt.Sprintf("%dKB, %d-way associative, hit latency = %d cycles, LRU policy",
		cfg.Cache.L1.Size>>10, cfg.Cache.L1.Ways, cfg.Cache.L1.HitLatency))
	row("L2 Cache", fmt.Sprintf("%dKB, %d-way associative, hit latency = %d cycles, LRU policy",
		cfg.Cache.L2.Size>>10, cfg.Cache.L2.Ways, cfg.Cache.L2.HitLatency))
	row("Prefetcher", fmt.Sprintf("Stream prefetcher, monitor L2 misses and prefetch into L3, %d entries, degree = %d, distance = %d",
		cfg.Prefetch.Streams, cfg.Prefetch.Degree, cfg.Prefetch.Distance))
	row("L3 Cache", fmt.Sprintf("%dMB, %d-way associative, hit latency = %d cycles, DRRIP policy",
		cfg.Cache.L3.Size>>20, cfg.Cache.L3.Ways, cfg.Cache.L3.HitLatency))
	row("DRAM Controller", fmt.Sprintf("Open row, FR-FCFS drain when full, %d-entry write buffer, %d-entry OMT cache, miss latency = %d cycles",
		cfg.DRAM.WriteBufCap, cfg.OMTCache.Entries, cfg.OMTCache.MissLatency))
	row("DRAM and Bus", fmt.Sprintf("DDR3-1066 MHz, 1 channel, 1 rank, %d banks, 8B-wide data bus, burst length = 8, %dKB row buffer",
		cfg.DRAM.Banks, cfg.DRAM.RowBytes>>10))
	fmt.Fprintf(w, "%-18s %d MB main memory, %d frames pre-granted to the Overlay Memory Store\n",
		"Memory", cfg.MemoryPages>>8, cfg.OMSInitialFrames)
	fmt.Fprintf(w, "%-18s overlaying-write remap = %d cycles, COW trap = %d cycles, TLB shootdown = %d cycles\n",
		"Overlay framework", cfg.OverlayRemapLatency, cfg.COWTrapLatency, cfg.TLB.ShootdownLatency)
	c := Cost(cfg)
	fmt.Fprintf(w, "%-18s %.1f KB total: OMT cache %.1f KB + TLB OBitVectors %.1f KB + wider cache tags %.1f KB (paper: 94.5 KB)\n",
		"Hardware cost", float64(c.OverheadsTotal)/1024, float64(c.OMTCacheBytes)/1024,
		float64(c.TLBExtraBytes)/1024, float64(c.TagExtraBytes)/1024)
}

// Framework is the assembled overlay-enabled memory system.
type Framework struct {
	Engine *sim.Engine
	Config Config

	Mem      *mem.Memory
	VM       *vm.Manager
	OMS      *oms.Store
	OMTTable *omt.Table
	OMTCache *omt.Cache
	DRAM     *dram.Controller
	Hier     *cache.Hierarchy
	Prefetch *prefetch.Prefetcher

	// backend is the pluggable translation mechanism every translation-
	// touching path below routes through (see TranslationBackend). It is
	// also the TLBs' walker, the hierarchy's memory and its miss observer.
	backend TranslationBackend

	// accessLat collects the end-to-end latency of every timed port
	// access (translation through cache/DRAM completion).
	accessLat *sim.Histogram

	ports []*Port

	// In-flight timed port accesses live in a slab indexed by the packed
	// argument of the pre-bound continuations below, so the per-access
	// path of Read/Write schedules zero closures.
	acc     []portAccess
	accFree []uint32

	readFireFn sim.ArgEvent // translation done → issue hierarchy access
	accDoneFn  sim.ArgEvent // hierarchy access done → observe + complete
	// Framework.write (translation done) and its steps, in timed.go.
	writeFireFn, retagFn, copyPageFn, copyLineFn, shootdownFn, storeFn sim.ArgEvent

	// In-flight controller requests (overlay miss resolutions and
	// delayed DRAM reads), same scheme.
	ovl        []ovlReq
	ovlFree    []uint32
	ovlFetchFn sim.ArgEvent
	ovlWBFn    sim.ArgEvent
	dramReadFn sim.ArgEvent // readAfter's delay passed → DRAM read

	ovlZeroFills *uint64
	ovlStaleWBs  *uint64
	readExcl     *uint64

	// Write-kind counters bumped by ResolveWrite on every store.
	simpleOvlWrites *uint64
	overlayingWr    *uint64
	plainWrites     *uint64
	cowCopies       *uint64
	cowReuses       *uint64
}

// portAccess is one in-flight timed access between translation and
// hierarchy completion.
type portAccess struct {
	start  sim.Cycle
	done   sim.Cont
	target arch.PhysAddr // cache tag the load or store is issued at
	src    arch.PhysAddr // write path only: resolved srcCacheAddr
	pid    arch.PID
	va     arch.VirtAddr
	copied int // COW copy: source lines arrived
}

// ovlReq is one controller request waiting out a latency: an overlay
// fetch/write-back before being located in the Overlay Memory Store
// (entry, line), or a located DRAM read (target). entry points into the
// OMT across engine events, which is safe only because the table is
// shared (omt.Table.Share) at quiescence, when every slot is free:
// Snapshot panics while any request is in flight.
type ovlReq struct {
	entry  *omt.Entry
	line   int
	target arch.PhysAddr
	done   sim.Cont
}

// New assembles a framework. It panics only on programmer error; resource
// exhaustion is reported as an error.
func New(cfg Config) (*Framework, error) {
	if err := ValidBackend(cfg.Backend); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	engine := sim.NewEngine()
	memory := mem.New(cfg.MemoryPages)
	store, err := oms.New(memory, &engine.Stats, cfg.OMSInitialFrames)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return assemble(cfg, engine, memory, store, omt.NewTable()), nil
}

// assemble wires a framework around pre-built bottom components. New
// feeds it fresh ones; NewFromSnapshot feeds it components rebuilt from
// a capture (the restore happens after wiring, so every stats handle
// bound here stays live).
func assemble(cfg Config, engine *sim.Engine, memory *mem.Memory, store *oms.Store, table *omt.Table) *Framework {
	manager := vm.NewManager(memory)
	f := &Framework{
		Engine:   engine,
		Config:   cfg,
		Mem:      memory,
		VM:       manager,
		OMS:      store,
		OMTTable: table,
	}
	mk, ok := backendRegistry[cfg.BackendName()]
	if !ok {
		panic("core: unknown backend " + cfg.BackendName())
	}
	f.backend = mk(f)
	f.OMTCache = omt.NewCache(cfg.OMTCache, f.OMTTable, &engine.Stats)
	f.DRAM = dram.New(engine, cfg.DRAM)
	f.Hier = cache.NewHierarchy(engine, cfg.Cache, f.backend)
	f.Prefetch = prefetch.New(cfg.Prefetch, f.Hier, &engine.Stats)
	f.Hier.SetPrefetcher(f.backend)
	f.accessLat = engine.Stats.Histogram("core.access_cycles")
	f.ovlZeroFills = engine.Stats.Counter("core.overlay_zero_fills")
	f.ovlStaleWBs = engine.Stats.Counter("core.overlay_stale_writebacks")
	f.readExcl = engine.Stats.Counter("core.overlaying_read_exclusive")
	f.simpleOvlWrites = engine.Stats.Counter("core.simple_overlay_writes")
	f.overlayingWr = engine.Stats.Counter("core.overlaying_writes")
	f.plainWrites = engine.Stats.Counter("core.plain_writes")
	f.cowCopies = engine.Stats.Counter("core.cow_page_copies")
	f.cowReuses = engine.Stats.Counter("core.cow_reuses")
	f.readFireFn = func(idx uint64) {
		f.Hier.Access(f.acc[idx].target, false, sim.Bind(f.accDoneFn, idx))
	}
	f.writeFireFn, f.retagFn, f.storeFn = f.write, f.retag, f.store
	f.copyPageFn, f.copyLineFn, f.shootdownFn = f.copyPage, f.copyLine, f.shootdown
	f.accDoneFn = func(idx uint64) {
		a := f.acc[idx] // copy: done may start accesses that reuse the slot
		f.freeAccess(uint32(idx))
		f.accessLat.Observe(uint64(f.Engine.Now() - a.start))
		a.done.Invoke()
	}
	f.ovlFetchFn = func(idx uint64) {
		r := f.ovl[idx]
		f.freeOvl(uint32(idx))
		target, ok := f.locateOverlayLine(r.entry, r.line)
		if !ok {
			// No backing slot: the line's data never left the caches (or
			// a prefetcher ran past the overlay). Zero-fill, no DRAM trip.
			*f.ovlZeroFills++
			r.done.Invoke()
			return
		}
		f.DRAM.Read(target, r.done)
	}
	f.ovlWBFn = func(idx uint64) {
		r := f.ovl[idx]
		f.freeOvl(uint32(idx))
		target, ok := f.locateOverlayLine(r.entry, r.line)
		if !ok {
			// Promotion discarded the overlay while the dirty line was in
			// flight; drop the write-back.
			*f.ovlStaleWBs++
			return
		}
		f.DRAM.Write(target)
	}
	f.dramReadFn = func(idx uint64) {
		r := f.ovl[idx]
		f.freeOvl(uint32(idx))
		f.DRAM.Read(r.target, r.done)
	}
	return f
}

// readAfter issues a DRAM read of target after lat cycles; the
// continuation waits in a controller-request slot.
func (f *Framework) readAfter(lat sim.Cycle, target arch.PhysAddr, done sim.Cont) {
	idx, r := f.newOvl()
	r.target, r.done = target, done
	f.Engine.Schedule(lat, sim.Bind(f.dramReadFn, uint64(idx)))
}

// newAccess claims a slab slot for an in-flight port access. The returned
// pointer is valid only until the next newAccess call (the slab may grow).
func (f *Framework) newAccess() (uint32, *portAccess) {
	if n := len(f.accFree); n > 0 {
		idx := f.accFree[n-1]
		f.accFree = f.accFree[:n-1]
		return idx, &f.acc[idx]
	}
	f.acc = append(f.acc, portAccess{})
	return uint32(len(f.acc) - 1), &f.acc[len(f.acc)-1]
}

func (f *Framework) freeAccess(idx uint32) {
	f.acc[idx] = portAccess{}
	f.accFree = append(f.accFree, idx)
}

func (f *Framework) newOvl() (uint32, *ovlReq) {
	if n := len(f.ovlFree); n > 0 {
		idx := f.ovlFree[n-1]
		f.ovlFree = f.ovlFree[:n-1]
		return idx, &f.ovl[idx]
	}
	f.ovl = append(f.ovl, ovlReq{})
	return uint32(len(f.ovl) - 1), &f.ovl[len(f.ovl)-1]
}

func (f *Framework) freeOvl(idx uint32) {
	f.ovl[idx] = ovlReq{}
	f.ovlFree = append(f.ovlFree, idx)
}

// SetTrace enables structured event tracing for the framework: the
// engine's trace pointer is set and every component that emits events
// without an engine reference (the Overlay Memory Store) is wired to the
// same log. Pass nil to disable tracing again.
func (f *Framework) SetTrace(t *sim.TraceLog) {
	f.Engine.Trace = t
	if t == nil {
		f.OMS.AttachTrace(nil, nil)
		return
	}
	f.OMS.AttachTrace(t, f.Engine.Now)
}

// omtPrimeScan bounds how far the controller looks ahead for the next
// overlay-bearing page when priming its OMT cache (the hierarchical OMT
// makes skipping dead entries cheap).
const omtPrimeScan = 128

func (f *Framework) primeNextOMTEntry(opn arch.OPN) {
	pid, vpn := arch.SplitOverlayPage(opn)
	for i := arch.VPN(1); i <= omtPrimeScan; i++ {
		next := arch.OverlayPage(pid, vpn+i)
		if f.OMTTable.Get(next).Empty() {
			continue
		}
		if !f.OMTCache.Contains(next) {
			f.OMTCache.Lookup(next)
		}
		break
	}
}

// Port is one CPU's view of the memory system: its own two-level TLB in
// front of the shared hierarchy.
type Port struct {
	f   *Framework
	TLB *tlb.TLB

	// lastOverlayOPN tracks the overlay page the port's streaming engine
	// is currently iterating; the OMT-cache charge of ReadOverlay applies
	// only when crossing into a new page (the OBitVector is read once per
	// page, not per line).
	lastOverlayOPN arch.OPN

	// The overlay computation model's prefetch cursor: the walker resumes
	// from where it last stopped instead of rescanning the OBitVector on
	// every access, and keeps at most Prefetch.Distance fresh lines in
	// flight ahead of demand.
	pfCur   arch.OPN
	pfLine  int
	pfAhead int
}

// extendOverlayPrefetch advances the overlay walk's prefetch cursor from
// the demand point (opn, line), issuing prefetches for upcoming overlay
// lines (crossing page boundaries via the OMT) until Prefetch.Distance
// fresh lines are in flight.
func (p *Port) extendOverlayPrefetch(opn arch.OPN, line int) {
	f := p.f
	if f.Config.Prefetch.Distance <= 0 {
		return
	}
	// The walker knows every line it will visit (the OBitVector is the
	// itinerary), so it runs further ahead than the blind stream
	// prefetcher's Table 2 distance.
	distance := f.Config.Prefetch.Distance * 3
	if p.pfAhead > 0 {
		p.pfAhead-- // this demand consumed one prefetched line
	}
	// If demand caught up with (or jumped past) the cursor, restart there.
	if opn > p.pfCur || (opn == p.pfCur && line >= p.pfLine) {
		p.pfCur, p.pfLine, p.pfAhead = opn, line, 0
	}
	want := distance - p.pfAhead
	if want <= 0 {
		return
	}
	issued := 0
	emptyRun := 0
	cur, l := p.pfCur, p.pfLine
	for hop := 0; hop < 64 && issued < want && emptyRun < 16; hop++ {
		bits := f.OMTTable.Get(cur).OBits
		if bits.Empty() {
			emptyRun++
		} else {
			emptyRun = 0
			for l++; l < arch.LinesPerPage; l++ {
				if bits.Has(l) && f.Hier.Prefetch(cur.LineAddr(l)) {
					issued++
					if issued >= want {
						p.pfCur, p.pfLine, p.pfAhead = cur, l, p.pfAhead+issued
						return
					}
				}
			}
		}
		pid, vpn := arch.SplitOverlayPage(cur)
		cur = arch.OverlayPage(pid, vpn+1)
		l = -1
	}
	p.pfCur, p.pfLine, p.pfAhead = cur, l, p.pfAhead+issued
}

// NewPort creates a CPU port. All ports observe overlaying-read-exclusive
// coherence messages (single-line OBitVector updates).
func (f *Framework) NewPort() *Port {
	p := &Port{f: f, TLB: tlb.New(f.Config.TLB, f.backend, &f.Engine.Stats)}
	f.ports = append(f.ports, p)
	return p
}

// locateOverlayLine resolves (entry, line) to a main-memory address,
// guarding against segments freed while a request was in flight.
func (f *Framework) locateOverlayLine(entry *omt.Entry, line int) (arch.PhysAddr, bool) {
	if entry.SegBase == 0 {
		return 0, false
	}
	if _, live := f.OMS.SegmentClass(entry.SegBase); !live {
		return 0, false
	}
	return f.OMS.LocateLine(entry.SegBase, line)
}

// broadcastLineUpdate delivers the overlaying-read-exclusive message to
// every TLB (and, via the shared table pointer, the OMT): the single-line
// remap that replaces a TLB shootdown.
func (f *Framework) broadcastLineUpdate(pid arch.PID, vpn arch.VPN, line int, inOverlay bool) {
	for _, p := range f.ports {
		p.TLB.UpdateLine(pid, vpn, line, inOverlay)
	}
	*f.readExcl++
	if tr := f.Engine.Trace; tr != nil {
		in := uint64(0)
		if inOverlay {
			in = 1
		}
		tr.Emit(f.Engine.Now(), "overlay", "read-exclusive",
			sim.TraceArg{Key: "pid", Val: uint64(pid)},
			sim.TraceArg{Key: "vpn", Val: uint64(vpn)},
			sim.TraceArg{Key: "line", Val: uint64(line)},
			sim.TraceArg{Key: "in_overlay", Val: in})
	}
}
