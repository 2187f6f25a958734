package core

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/vm"
)

// TranslationBackend is the pluggable translation mechanism behind the
// framework. It covers every point where an address-translation design
// touches the simulated system: the TLB's miss path (Walk, so the
// backend is the TLB's walker), the timed per-access translation on the
// core side (Translate), the structural resolution of loads and stores
// shared by the timed and functional paths (ResolveRead/ResolveWrite),
// the memory controller's view of LLC misses and write-backs
// (Fetch/WriteBack, so the backend is the cache hierarchy's memory) and
// the prefetcher feed (OnMiss, so it is the hierarchy's miss observer),
// and the OS-level sharing mechanism used at fork time. MetadataBytes
// models the translation-metadata footprint the design carries for the
// currently mapped state; SnapshotState and RestoreState carry any
// backend-private structures across Snapshot/NewFromSnapshot. The timed
// store itself is the framework's (Framework.write): it switches on the
// kind ResolveWrite reports.
//
// Four implementations are registered. "baseline" (conventional 4-level
// walks plus trap-and-copy COW) implements every method conventionally,
// and the other three embed it and override only where their designs
// differ: "overlay" (the paper's page overlays, the default), "vbi" (the
// Virtual Block Interface: virtually-tagged caches with translation
// delegated to a memory-translation layer at the controller), and
// "utopia" (hybrid restrictive/flexible mappings: a hash-claimed
// restrictive set makes most walks cheap, the rest fall back to the
// conventional walk). Each overrides Name.
type TranslationBackend interface {
	// Name returns the backend's registered name.
	Name() string

	// Walk resolves a TLB miss; the returned latency is the walk cost
	// (the TLB adds its own probe latencies on top).
	Walk(pid arch.PID, vpn arch.VPN) (tlb.Entry, sim.Cycle, bool)

	// Translate translates a timed access: the cache-tag address a load
	// is issued at and the translation latency preceding a load or store.
	// It panics on a true fault — workloads map their footprints.
	Translate(p *Port, pid arch.PID, va arch.VirtAddr) (arch.PhysAddr, sim.Cycle)

	// ResolveRead locates the bytes a load must return (functional path,
	// shared with the timed path so the two can never diverge).
	ResolveRead(proc *vm.Process, vpn arch.VPN, line int) (lineLoc, error)

	// ResolveWrite performs the structural state changes a store
	// requires and reports what happened, including the cache tag the
	// store is issued at. It does not write the payload.
	ResolveWrite(proc *vm.Process, vpn arch.VPN, line int) (writeResolution, error)

	// Fetch resolves an LLC miss at the memory controller.
	Fetch(addr arch.PhysAddr, done sim.Cont)

	// WriteBack accepts a dirty line evicted from the LLC.
	WriteBack(addr arch.PhysAddr)

	// OnMiss observes L2 demand misses (prefetcher feeding and any
	// controller-side metadata priming).
	OnMiss(addr arch.PhysAddr)

	// Fork clones the process under the backend's sharing mechanism.
	// overlayMode selects overlay-on-write where the backend supports it
	// and is ignored otherwise.
	Fork(parent *vm.Process, overlayMode bool) *vm.Process

	// MetadataBytes models the translation-metadata footprint (page
	// tables, OMT entries, block tables, restrictive-set tags) for the
	// currently mapped state.
	MetadataBytes() int

	// SnapshotState captures backend-private state (nil if the backend
	// keeps none outside the shared components).
	SnapshotState() any

	// RestoreState restores a SnapshotState capture into a freshly
	// assembled backend.
	RestoreState(state any)
}

// backendRegistry maps names to constructors. Backends self-register
// from init functions in their own files.
var backendRegistry = map[string]func(*Framework) TranslationBackend{}

// RegisterBackend adds a backend constructor under name. It panics on
// duplicates — registration is an init-time, programmer-error path.
func RegisterBackend(name string, mk func(*Framework) TranslationBackend) {
	if _, dup := backendRegistry[name]; dup {
		panic("core: duplicate backend " + name)
	}
	backendRegistry[name] = mk
}

// DefaultBackend is the backend an empty Config.Backend selects.
const DefaultBackend = "overlay"

// Backends returns the registered backend names, sorted.
func Backends() []string {
	names := make([]string, 0, len(backendRegistry))
	for name := range backendRegistry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ValidBackend reports whether name selects a registered backend (the
// empty string selects the default). The error lists the valid names.
func ValidBackend(name string) error {
	if name == "" {
		return nil
	}
	if _, ok := backendRegistry[name]; !ok {
		return fmt.Errorf("unknown backend %q (valid: %v)", name, Backends())
	}
	return nil
}

// BackendName resolves the config's backend selection to a concrete name.
func (c Config) BackendName() string {
	if c.Backend == "" {
		return DefaultBackend
	}
	return c.Backend
}

// Backend returns the framework's translation backend.
func (f *Framework) Backend() TranslationBackend { return f.backend }

// MetadataBytes reports the backend's modeled translation-metadata
// footprint for the currently mapped state.
func (f *Framework) MetadataBytes() int { return f.backend.MetadataBytes() }
