package core

import (
	"unsafe"

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

// Snapshot support: a framework at a quiescence point (engine drained,
// no in-flight port accesses or overlay requests) is pure data. The
// capture pairs the copy-on-write memory snapshot with by-value copies
// of every component's structural state plus the full stats registry;
// NewFromSnapshot rebuilds the framework through the same assemble path
// as New, so every pre-bound continuation and counter handle is wired
// against the fork's own engine before the data is restored.

// portSnapshot captures one CPU port: its TLB plus the overlay-walk
// cursor scalars.
type portSnapshot struct {
	tlb            *tlb.Snapshot
	lastOverlayOPN arch.OPN
	pfCur          arch.OPN
	pfLine         int
	pfAhead        int
}

// Snapshot is an immutable capture of a quiescent framework. Any number
// of forks can be created from one snapshot, concurrently; the snapshot
// itself is never mutated (memory pages are shared copy-on-write with
// both the parent and every fork).
type Snapshot struct {
	cfg   Config
	clock sim.Clock
	stats *sim.StatsSnapshot

	mem      *mem.Snapshot
	vm       *vm.Snapshot
	oms      *oms.Snapshot
	omtTable omt.Table
	omtCache *omt.CacheSnapshot
	dram     *dram.Snapshot
	hier     *cache.HierarchySnapshot
	prefetch *prefetch.Snapshot
	ports    []portSnapshot
	backend  any // backend-private state (TranslationBackend.SnapshotState)
}

// Bytes returns the bytes the capture holds, summed over its components.
func (s *Snapshot) Bytes() int {
	b := int(unsafe.Sizeof(*s)) + s.stats.Bytes() + s.mem.Bytes() + s.vm.Bytes() + s.oms.Bytes() +
		s.omtTable.Bytes() + s.omtCache.Bytes() + s.dram.Bytes() + s.hier.Bytes() + s.prefetch.Bytes()
	for _, p := range s.ports {
		b += int(unsafe.Sizeof(p)) + p.tlb.Bytes()
	}
	if st, ok := s.backend.(interface{ bytes() int }); ok {
		b += st.bytes()
	}
	return b
}

// Snapshot captures the framework. It panics if any access is still in
// flight — call it only after the engine has drained.
func (f *Framework) Snapshot() *Snapshot {
	if len(f.accFree) != len(f.acc) {
		panic("core: snapshot with in-flight port accesses")
	}
	if len(f.ovlFree) != len(f.ovl) {
		panic("core: snapshot with in-flight overlay requests")
	}
	s := &Snapshot{
		cfg:      f.Config,
		clock:    f.Engine.SaveClock(),
		stats:    f.Engine.Stats.Capture(),
		mem:      f.Mem.Snapshot(),
		vm:       f.VM.Snapshot(),
		oms:      f.OMS.Snapshot(),
		omtTable: f.OMTTable.Share(),
		omtCache: f.OMTCache.Snapshot(),
		dram:     f.DRAM.Snapshot(),
		hier:     f.Hier.Snapshot(),
		prefetch: f.Prefetch.Snapshot(),
		backend:  f.backend.SnapshotState(),
	}
	for _, p := range f.ports {
		s.ports = append(s.ports, portSnapshot{
			tlb:            p.TLB.Snapshot(),
			lastOverlayOPN: p.lastOverlayOPN,
			pfCur:          p.pfCur,
			pfLine:         p.pfLine,
			pfAhead:        p.pfAhead,
		})
	}
	return s
}

// Port returns the i-th CPU port in creation order. Forks resumed via
// NewFromSnapshot use it to reach the recreated ports.
func (f *Framework) Port(i int) *Port { return f.ports[i] }

// NewFromSnapshot builds an independent framework resuming from the
// capture: same config, same simulated clock, same warm state, with
// memory pages shared copy-on-write until first write. The fork has the
// same number of ports as the snapshotted framework, in creation order.
func NewFromSnapshot(s *Snapshot) *Framework {
	engine := sim.NewEngine()
	memory := mem.NewFromSnapshot(s.mem)
	// Zero initial frames: the restored allocator already owns the OMS's
	// frames; Restore below brings the bookkeeping across.
	store, err := oms.New(memory, &engine.Stats, 0)
	if err != nil {
		panic("core: oms rebuild failed: " + err.Error())
	}
	table := s.omtTable // shares the capture's nodes, copied on first write
	f := assemble(s.cfg, engine, memory, store, &table)
	f.VM.Restore(s.vm)
	f.OMS.Restore(s.oms)
	f.OMTCache.Restore(s.omtCache, &table)
	f.DRAM.Restore(s.dram)
	f.Hier.Restore(s.hier)
	f.Prefetch.Restore(s.prefetch)
	f.backend.RestoreState(s.backend)
	for _, ps := range s.ports {
		p := f.NewPort()
		p.TLB.Restore(ps.tlb)
		p.lastOverlayOPN = ps.lastOverlayOPN
		p.pfCur, p.pfLine, p.pfAhead = ps.pfCur, ps.pfLine, ps.pfAhead
	}
	// Clock and stats last: component construction above must not leave
	// residue in either (counters registered during assemble are
	// overwritten wholesale by Restore).
	engine.LoadClock(s.clock)
	engine.Stats.Restore(s.stats)
	return f
}
