package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/vm"
)

// The golden-model test drives the framework with random operation
// sequences — stores, loads, overlay-on-write and conventional forks,
// process exits, and promotions — and checks every load against a flat
// reference model (one byte slice per process). Any divergence between
// the overlay machinery (OBitVectors, OMS segments, migrations, COW
// copies, promotions) and simple copy-on-fork semantics is caught here.

const goldenPages = 6

type goldenProc struct {
	proc *vm.Process
	mem  []byte
}

func TestGoldenModelRandomOps(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(string(rune('A'+seed-1)), func(t *testing.T) {
			runGolden(t, seed, 1500)
		})
	}
}

func runGolden(t *testing.T, seed int64, steps int) {
	cfg := testConfig()
	cfg.MemoryPages = 8192
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))

	root := f.VM.NewProcess()
	if err := f.VM.MapAnon(root, 0, goldenPages); err != nil {
		t.Fatal(err)
	}
	procs := []*goldenProc{{proc: root, mem: make([]byte, goldenPages*arch.PageSize)}}

	randVA := func() arch.VirtAddr {
		return arch.VirtAddr(rng.Intn(goldenPages * arch.PageSize))
	}

	for step := 0; step < steps; step++ {
		g := procs[rng.Intn(len(procs))]
		switch op := rng.Intn(10); {
		case op < 4: // store a small random run
			va := randVA()
			n := 1 + rng.Intn(100)
			if int(va)+n > len(g.mem) {
				n = len(g.mem) - int(va)
			}
			data := make([]byte, n)
			rng.Read(data)
			if err := f.Store(g.proc.PID, va, data); err != nil {
				t.Fatalf("step %d: store: %v", step, err)
			}
			copy(g.mem[va:], data)

		case op < 8: // load and compare
			va := randVA()
			n := 1 + rng.Intn(200)
			if int(va)+n > len(g.mem) {
				n = len(g.mem) - int(va)
			}
			buf := make([]byte, n)
			if err := f.Load(g.proc.PID, va, buf); err != nil {
				t.Fatalf("step %d: load: %v", step, err)
			}
			if !bytes.Equal(buf, g.mem[va:int(va)+n]) {
				t.Fatalf("step %d seed %d: divergence at pid %d va %#x",
					step, seed, g.proc.PID, uint64(va))
			}

		case op == 8: // fork (mixed overlay / conventional) or exit
			if len(procs) >= 6 || (len(procs) > 1 && rng.Intn(4) == 0) {
				// Exit a non-root process; its memory must vanish without
				// corrupting anyone else.
				idx := 1 + rng.Intn(len(procs)-1)
				f.Exit(procs[idx].proc)
				procs = append(procs[:idx], procs[idx+1:]...)
				continue
			}
			child := f.Fork(g.proc, rng.Intn(2) == 0)
			cm := make([]byte, len(g.mem))
			copy(cm, g.mem)
			procs = append(procs, &goldenProc{proc: child, mem: cm})

		default: // promote a random page if it has an overlay
			vpn := arch.VPN(rng.Intn(goldenPages))
			if obits, _ := f.OverlayInfo(g.proc.PID, vpn); !obits.Empty() {
				if err := f.Promote(g.proc, vpn, CopyAndCommit); err != nil {
					t.Fatalf("step %d: promote: %v", step, err)
				}
			}
		}
	}

	// Final full sweep: every byte of every process must match.
	for _, g := range procs {
		buf := make([]byte, len(g.mem))
		if err := f.Load(g.proc.PID, 0, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, g.mem) {
			for i := range buf {
				if buf[i] != g.mem[i] {
					t.Fatalf("seed %d: final sweep divergence pid %d at offset %#x: got %#x want %#x",
						seed, g.proc.PID, i, buf[i], g.mem[i])
				}
			}
		}
	}
}

// TestGoldenTimedAndFunctionalMix interleaves timed port writes with
// functional stores and checks the functional view stays consistent.
func TestGoldenTimedAndFunctionalMix(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	port := f.NewPort()
	rng := rand.New(rand.NewSource(99))

	parent := f.VM.NewProcess()
	if err := f.VM.MapAnon(parent, 0, 4); err != nil {
		t.Fatal(err)
	}
	ref := make([]byte, 4*arch.PageSize)
	for i := range ref {
		ref[i] = byte(i * 7)
	}
	if err := f.Store(parent.PID, 0, ref); err != nil {
		t.Fatal(err)
	}
	f.Fork(parent, true)

	// Timed writes change structure (create overlays) but not data; the
	// reference is only updated by functional stores.
	for i := 0; i < 300; i++ {
		va := arch.VirtAddr(rng.Intn(len(ref)))
		if rng.Intn(2) == 0 {
			port.Write(parent.PID, va, sim.Cont{})
			f.Engine.Run()
		} else {
			b := byte(rng.Intn(256))
			if err := f.Store(parent.PID, va, []byte{b}); err != nil {
				t.Fatal(err)
			}
			ref[va] = b
		}
	}
	got := make([]byte, len(ref))
	if err := f.Load(parent.PID, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("timed/functional mix diverged from reference")
	}
}
