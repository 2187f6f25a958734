// SpMV: build a sparse matrix, store it three ways — dense, CSR, and the
// paper's overlay representation (§5.2) — verify they all compute the
// same y = M·x, then simulate one iteration of each to compare cycles and
// memory. Finishes with the dynamic-update contrast: inserting a non-zero
// into the overlay matrix is one overlaying write; CSR must shift arrays.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/sparse"
	"repro/internal/vm"
)

func main() {
	m := sparse.Random("demo", 2048, 2048, 24000, 6.0, 42)
	fmt.Printf("matrix %q: %dx%d, %d non-zeros, L = %.2f\n",
		m.Name, m.Rows, m.Cols, m.NNZ(), m.L())

	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	want := m.MultiplyDense(x)

	// CSR.
	csr := sparse.NewCSR(m)
	if !equal(want, csr.Multiply(x)) {
		log.Fatal("CSR result mismatch")
	}

	// Overlay representation: every matrix page maps to the zero page;
	// non-zero lines live in overlays.
	cfg := core.DefaultConfig()
	f, err := core.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	proc := f.VM.NewProcess()
	o, layout, err := sparse.MapOverlay(f, proc, m)
	if err != nil {
		log.Fatal(err)
	}
	got, err := o.Multiply(x)
	if err != nil {
		log.Fatal(err)
	}
	if !equal(want, got) {
		log.Fatal("overlay result mismatch")
	}
	fmt.Println("dense, CSR and overlay SpMV all agree")

	fmt.Printf("\nmemory: dense %d KB | CSR %d KB | overlay %d KB data (%d KB with segment rounding)\n",
		m.DenseBytes()>>10, csr.MemoryBytes()>>10, o.LineBytes()>>10, o.MemoryBytes()>>10)

	// Timed run: overlay representation.
	trace, err := sparse.OverlayTrace(o, layout)
	if err != nil {
		log.Fatal(err)
	}
	overlayCycles := simulate(f, proc, trace)

	// Timed run: CSR, on a fresh machine.
	f2, _ := core.New(cfg)
	proc2 := f2.VM.NewProcess()
	layout2, err := sparse.MapCSR(f2, proc2, csr)
	if err != nil {
		log.Fatal(err)
	}
	csrCycles := simulate(f2, proc2, sparse.CSRTrace(csr, layout2))

	fmt.Printf("one SpMV iteration: overlay %d cycles, CSR %d cycles (overlay %.2fx)\n",
		overlayCycles, csrCycles, float64(csrCycles)/float64(overlayCycles))

	// Dynamic update: one store vs an O(nnz) array shift.
	if err := o.Insert(100, 200, 3.5); err != nil {
		log.Fatal(err)
	}
	csr.Insert(100, 200, 3.5)
	v, _ := o.At(100, 200)
	fmt.Printf("dynamic insert: overlay matrix now has %d non-zero lines, element = %v\n",
		m.NNZBlocks(64)+1, v)
}

func simulate(f *core.Framework, proc *vm.Process, trace cpu.Trace) uint64 {
	port := f.NewPort()
	c := cpu.New(f.Engine, port, proc.PID, trace)
	c.Run(0)
	f.Engine.Run()
	return uint64(c.Cycles())
}

func equal(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}
