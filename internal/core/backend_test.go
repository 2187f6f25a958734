package core_test

// Backend registry and cross-backend behavior: every registered
// translation backend must provide working fork isolation, deterministic
// timed execution, and snapshot round-trips. The overlay backend's
// bit-identity to the pre-refactor framework is covered by the golden
// tests; these tests hold the other backends to the same structural
// contract.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sim"
	"repro/internal/vm"
)

func TestBackendRegistry(t *testing.T) {
	want := []string{"baseline", "overlay", "utopia", "vbi"}
	if got := core.Backends(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Backends() = %v, want %v", got, want)
	}
	for _, name := range append(core.Backends(), "") {
		if err := core.ValidBackend(name); err != nil {
			t.Errorf("ValidBackend(%q) = %v, want nil", name, err)
		}
	}
	err := core.ValidBackend("nope")
	if err == nil {
		t.Fatal("ValidBackend accepted an unknown backend")
	}
	for _, name := range core.Backends() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("ValidBackend error %q does not list %q", err, name)
		}
	}
	var cfg core.Config
	if got := cfg.BackendName(); got != core.DefaultBackend {
		t.Errorf("empty Config.BackendName() = %q, want %q", got, core.DefaultBackend)
	}
	cfg.Backend = "vbi"
	if got := cfg.BackendName(); got != "vbi" {
		t.Errorf("Config.BackendName() = %q, want %q", got, "vbi")
	}
	cfg.Backend = "nope"
	if _, err := core.New(cfg); err == nil {
		t.Error("core.New accepted an unknown backend")
	}
}

// backendConfig is the small-memory config the per-backend tests share.
func backendConfig(name string) core.Config {
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 4096
	cfg.OMSInitialFrames = 4
	cfg.Backend = name
	return cfg
}

// nativeMode returns the overlayMode flag a backend's own sharing
// mechanism uses at fork time: overlay-on-write for the overlay backend,
// copy-on-write everywhere else.
func nativeMode(name string) bool { return name == core.DefaultBackend }

func TestBackendForkIsolation(t *testing.T) {
	const pages = 8
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			f, err := core.New(backendConfig(name))
			if err != nil {
				t.Fatal(err)
			}
			parent := f.VM.NewProcess()
			if err := f.VM.MapAnon(parent, 0, pages); err != nil {
				t.Fatal(err)
			}
			fill := make([]byte, pages*arch.PageSize)
			for i := range fill {
				fill[i] = byte(i * 13)
			}
			if err := f.Store(parent.PID, 0, fill); err != nil {
				t.Fatal(err)
			}
			if f.MetadataBytes() <= 0 {
				t.Errorf("MetadataBytes() = %d for a mapped footprint, want > 0", f.MetadataBytes())
			}
			if got := f.Backend().Name(); got != name {
				t.Errorf("Backend().Name() = %q, want %q", got, name)
			}

			child := f.Fork(parent, nativeMode(name))

			// The child observes the parent's pre-fork contents.
			got := make([]byte, pages*arch.PageSize)
			if err := f.Load(child.PID, 0, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != string(fill) {
				t.Error("child does not observe the parent's pre-fork contents")
			}

			// A child write stays private to the child.
			if err := f.Store(child.PID, 3*arch.PageSize+7, []byte{0xAB}); err != nil {
				t.Fatal(err)
			}
			b := make([]byte, 1)
			if err := f.Load(parent.PID, 3*arch.PageSize+7, b); err != nil {
				t.Fatal(err)
			}
			if b[0] != fill[3*arch.PageSize+7] {
				t.Errorf("child write leaked into parent: %#x", b[0])
			}

			// A parent write stays private to the parent.
			if err := f.Store(parent.PID, 5*arch.PageSize+1, []byte{0xCD}); err != nil {
				t.Fatal(err)
			}
			if err := f.Load(child.PID, 5*arch.PageSize+1, b); err != nil {
				t.Fatal(err)
			}
			if b[0] != fill[5*arch.PageSize+1] {
				t.Errorf("parent write leaked into child: %#x", b[0])
			}
		})
	}
}

// TestBackendTimedDeterminism runs the same timed trace twice on fresh
// frameworks per backend and requires identical cycles and counters.
func TestBackendTimedDeterminism(t *testing.T) {
	const pages = 16
	instrs := equivTrace(pages)
	runOnce := func(name string) (sim uint64, stats string) {
		t.Helper()
		f, err := core.New(backendConfig(name))
		if err != nil {
			t.Fatal(err)
		}
		p := f.VM.NewProcess()
		if err := f.VM.MapAnon(p, 0, pages); err != nil {
			t.Fatal(err)
		}
		c := cpu.New(f.Engine, f.NewPort(), p.PID, cpu.NewSliceTrace(instrs))
		c.Run(0)
		f.Engine.Run()
		return uint64(c.Cycles()), f.Engine.Stats.String()
	}
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			c1, s1 := runOnce(name)
			c2, s2 := runOnce(name)
			if c1 != c2 {
				t.Errorf("cycles diverge across identical runs: %d vs %d", c1, c2)
			}
			if s1 != s2 {
				t.Errorf("counter registries diverge across identical runs\nfirst:\n%s\nsecond:\n%s", s1, s2)
			}
			if c1 == 0 {
				t.Error("timed run retired no cycles")
			}
		})
	}
}

// TestBackendSnapshotEquivalence parameterizes the fork-matches-parent
// check over every backend: a framework captured at a quiescence point
// and resumed via NewFromSnapshot must replay the parent's remaining
// execution exactly, including backend-private state carried through
// SnapshotState/RestoreState.
func TestBackendSnapshotEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot equivalence sweep is not short")
	}
	const pages = 16
	instrs := equivTrace(pages)
	for _, name := range core.Backends() {
		t.Run(name, func(t *testing.T) {
			cfg := backendConfig(name)
			build := func() (*core.Framework, *cpu.Core, arch.PID) {
				f, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				p := f.VM.NewProcess()
				if err := f.VM.MapAnon(p, 0, pages); err != nil {
					t.Fatal(err)
				}
				fill := make([]byte, pages*arch.PageSize)
				for i := range fill {
					fill[i] = byte(i * 31)
				}
				if err := f.Store(p.PID, 0, fill); err != nil {
					t.Fatal(err)
				}
				return f, cpu.New(f.Engine, f.NewPort(), p.PID, cpu.NewSliceTrace(instrs)), p.PID
			}

			pf, pc, pid := build()
			pc.Run(1500)
			pf.Engine.Run()
			snap := pf.Snapshot()
			cpuSnap := pc.Snapshot()
			fetched := pc.Fetched()
			pc.Run(0)
			pf.Engine.Run()

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
			if p, f := pf.Engine.Stats.String(), ff.Engine.Stats.String(); p != f {
				t.Errorf("registries diverge\nparent:\n%s\nfork:\n%s", p, f)
			}
			if pf.MetadataBytes() != ff.MetadataBytes() {
				t.Errorf("metadata footprint diverges: parent %d, fork %d",
					pf.MetadataBytes(), ff.MetadataBytes())
			}
		})
	}
}

// TestBackendTimedWriteKinds drives every write kind through the one
// timed store path under each backend. After a fork of one page, the
// parent stores to line 0 (the page is shared), to line 1, and to line
// 0 again; then the child stores to line 0 (its page is either still
// overlay-shared or left to its last sharer). Each store must complete,
// move exactly its kind's counter, land in the caches at the tag its
// backend issues it at, and do and cost what its arm puts on the
// critical path.
func TestBackendTimedWriteKinds(t *testing.T) {
	const (
		plain      = "core.plain_writes"
		simple     = "core.simple_overlay_writes"
		overlaying = "core.overlaying_writes"
		cowCopy    = "core.cow_page_copies"
		cowReuse   = "core.cow_reuses"
		vbiCopy    = "vbi.block_copies"
		vbiReuse   = "vbi.remap_reuses"
	)
	kinds := []string{plain, simple, overlaying, cowCopy, cowReuse, vbiCopy, vbiReuse}
	cow := [4]string{cowCopy, plain, plain, cowReuse}
	cases := []struct {
		backend     string
		overlayMode bool
		want        [4]string
	}{
		{"overlay", true, [4]string{overlaying, overlaying, simple, overlaying}},
		{"overlay", false, cow},
		{"baseline", false, cow},
		{"utopia", false, cow},
		{"vbi", false, [4]string{vbiCopy, plain, plain, vbiReuse}},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/overlay=%v", tc.backend, tc.overlayMode), func(t *testing.T) {
			f, err := core.New(backendConfig(tc.backend))
			if err != nil {
				t.Fatal(err)
			}
			port := f.NewPort()
			parent := f.VM.NewProcess()
			if err := f.VM.MapAnon(parent, 0, 1); err != nil {
				t.Fatal(err)
			}
			child := f.Fork(parent, tc.overlayMode)
			stores := [4]struct {
				proc *vm.Process
				line int
			}{{parent, 0}, {parent, 1}, {parent, 0}, {child, 0}}
			var lat [4]sim.Cycle
			for i, s := range stores {
				before := f.Engine.Stats.Snapshot()
				moved := func(name string) uint64 { return f.Engine.Stats.Get(name) - before[name] }
				start, completed := f.Engine.Now(), false
				port.Write(s.proc.PID, arch.VirtAddr(s.line*arch.LineSize), sim.Bind(func(uint64) {
					lat[i], completed = f.Engine.Now()-start, true
				}, 0))
				f.Engine.Run()
				if !completed {
					t.Fatalf("store %d never completed", i)
				}
				for _, k := range kinds {
					want := uint64(0)
					if k == tc.want[i] {
						want = 1
					}
					if got := moved(k); got != want {
						t.Errorf("store %d: %s moved by %d, want %d", i, k, got, want)
					}
				}
				// Only a COW copy reads the page through the caches, and
				// only a vbi copy posts it to DRAM.
				lookups, writes := uint64(1), uint64(0)
				switch tc.want[i] {
				case cowCopy:
					lookups += arch.LinesPerPage
				case vbiCopy:
					writes = arch.LinesPerPage
				}
				if got := moved("cache.l1.hits") + moved("cache.l1.misses"); got != lookups {
					t.Errorf("store %d: %d L1 lookups, want %d", i, got, lookups)
				}
				if got := moved("dram.writes"); got != writes {
					t.Errorf("store %d: %d DRAM writes, want %d", i, got, writes)
				}
				// vbi tags every line virtually, and so does the overlay
				// backend for lines in an overlay.
				phys := arch.PhysAddrOf(s.proc.Table.Lookup(0).PPN, uint64(s.line)<<arch.LineShift)
				tag := phys
				if tc.backend == "vbi" || tc.overlayMode {
					tag = arch.OverlayPage(s.proc.PID, 0).LineAddr(s.line)
				}
				if !f.Hier.Present(tag) {
					t.Errorf("store %d: line not cached at its tag %#x", i, uint64(tag))
				}
				if tag != phys && f.Hier.Present(phys) {
					t.Errorf("store %d: line cached at its physical address %#x", i, uint64(phys))
				}
			}
			// A copy costs more than a reuse, which costs more than a plain
			// store. vbi's copy is posted to DRAM off the critical path, but
			// its 64 writes fill the write buffer, so the store's own miss
			// waits for the drain.
			if tc.overlayMode {
				if lat[0] <= lat[2] {
					t.Errorf("overlaying write (%d cycles) not slower than a simple overlay write (%d)", lat[0], lat[2])
				}
			} else if !(lat[0] > lat[3] && lat[3] > lat[1] && lat[3] > lat[2]) {
				t.Errorf("latencies %v: want copy > reuse > plain stores", lat)
			}
		})
	}
}
