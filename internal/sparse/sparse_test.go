package sparse

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/vm"
)

// Kind aliases keep the trace-count tests readable.
const (
	cpuLoad        = cpu.Load
	cpuStore       = cpu.Store
	cpuLoadOverlay = cpu.LoadOverlay
)

func approxEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9*(1+math.Abs(a[i])) {
			return false
		}
	}
	return true
}

func testVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func smallMatrix() *Matrix {
	m := NewMatrix("small", 16, 32)
	m.Set(0, 0, 1.5)
	m.Set(0, 1, -2.0)
	m.Set(3, 31, 4.0)
	m.Set(7, 8, 0.5)
	m.Set(7, 9, 0.25)
	m.Set(15, 16, 3.0)
	return m
}

func TestMatrixSetAtNNZ(t *testing.T) {
	m := smallMatrix()
	if m.NNZ() != 6 {
		t.Fatalf("NNZ = %d", m.NNZ())
	}
	if m.At(0, 1) != -2.0 || m.At(1, 1) != 0 {
		t.Fatal("At wrong")
	}
	m.Set(0, 1, 9.0) // update in place
	if m.NNZ() != 6 || m.At(0, 1) != 9.0 {
		t.Fatal("update changed NNZ or lost value")
	}
}

func TestNNZBlocksAndL(t *testing.T) {
	m := NewMatrix("l", 8, 64)
	// Line 0 of row 0: 4 values; line 3 of row 1: 1 value.
	for c := 0; c < 4; c++ {
		m.Set(0, c, 1)
	}
	m.Set(1, 3*8, 1)
	if got := m.NNZBlocks(64); got != 2 {
		t.Fatalf("NNZBlocks(64) = %d, want 2", got)
	}
	if l := m.L(); l != 2.5 {
		t.Fatalf("L = %v, want 2.5", l)
	}
	// 16-byte blocks: row0 cols 0..3 → 2 blocks; the single value → 1.
	if got := m.NNZBlocks(16); got != 3 {
		t.Fatalf("NNZBlocks(16) = %d, want 3", got)
	}
	// Page-sized blocks: row 0 and 1 are in the same 4 KB block (64 B/row
	// × 8 rows = 512 B < 4 KB ⇒ 1 block).
	if got := m.NNZBlocks(4096); got != 1 {
		t.Fatalf("NNZBlocks(4096) = %d, want 1", got)
	}
}

func TestCSRMatchesDense(t *testing.T) {
	m := Random("r", 64, 64, 500, 3.0, 42)
	x := testVector(m.Cols, 1)
	want := m.MultiplyDense(x)
	got := NewCSR(m).Multiply(x)
	if !approxEqual(want, got) {
		t.Fatal("CSR SpMV diverges from dense reference")
	}
}

func TestCSRMemoryBytes(t *testing.T) {
	m := Random("r", 64, 64, 500, 3.0, 42)
	c := NewCSR(m)
	want := c.NNZ()*12 + (m.Rows+1)*4
	if c.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d", c.MemoryBytes(), want)
	}
}

func TestCSRInsert(t *testing.T) {
	m := smallMatrix()
	c := NewCSR(m)
	c.Insert(3, 5, 7.5)
	m.Set(3, 5, 7.5)
	x := testVector(m.Cols, 2)
	if !approxEqual(m.MultiplyDense(x), c.Multiply(x)) {
		t.Fatal("insert broke CSR")
	}
}

func newSparseFW(t *testing.T) (*core.Framework, *vm.Process) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MemoryPages = 16384
	f, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, f.VM.NewProcess()
}

func TestOverlayMatrixMatchesDense(t *testing.T) {
	f, proc := newSparseFW(t)
	m := Random("r", 64, 64, 400, 2.5, 7)
	o, err := BuildOverlay(f, proc, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	x := testVector(m.Cols, 3)
	got, err := o.Multiply(x)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(m.MultiplyDense(x), got) {
		t.Fatal("overlay SpMV diverges from dense reference")
	}
}

func TestOverlayMatrixAt(t *testing.T) {
	f, proc := newSparseFW(t)
	m := smallMatrix()
	o, err := BuildOverlay(f, proc, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m.Rows; r++ {
		for c := 0; c < m.Cols; c++ {
			got, err := o.At(r, c)
			if err != nil {
				t.Fatal(err)
			}
			if got != m.At(r, c) {
				t.Fatalf("At(%d,%d) = %v, want %v", r, c, got, m.At(r, c))
			}
		}
	}
}

func TestOverlayDynamicInsert(t *testing.T) {
	f, proc := newSparseFW(t)
	m := smallMatrix()
	o, err := BuildOverlay(f, proc, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Insert(5, 17, 2.25); err != nil {
		t.Fatal(err)
	}
	m.Set(5, 17, 2.25)
	x := testVector(m.Cols, 4)
	got, _ := o.Multiply(x)
	if !approxEqual(m.MultiplyDense(x), got) {
		t.Fatal("dynamic insert broke overlay matrix")
	}
}

func TestOverlayMemoryTracksNNZLines(t *testing.T) {
	f, proc := newSparseFW(t)
	m := Random("r", 128, 128, 600, 2.0, 9)
	o, err := BuildOverlay(f, proc, 0, m)
	if err != nil {
		t.Fatal(err)
	}
	bytes := o.MemoryBytes()
	if bytes == 0 {
		t.Fatal("overlay reports zero footprint")
	}
	// Footprint must be at least the non-zero lines and far less than the
	// dense layout for a sparse matrix.
	if bytes < m.NNZBlocks(64)*arch.LineSize {
		t.Fatalf("footprint %d below line floor %d", bytes, m.NNZBlocks(64)*64)
	}
	if bytes >= m.DenseBytes() {
		t.Fatalf("footprint %d not below dense %d", bytes, m.DenseBytes())
	}
}

func TestSuiteSpecs(t *testing.T) {
	specs := SuiteSpecs()
	if len(specs) != SuiteSize {
		t.Fatalf("suite = %d, want %d", len(specs), SuiteSize)
	}
	if specs[0].Name != "poisson3Db-like" || specs[SuiteSize-1].Name != "raefsky4-like" {
		t.Fatal("extreme matrices missing")
	}
}

func TestRandomHitsTargetL(t *testing.T) {
	for _, target := range []float64{1.09, 2.5, 4.5, 8.0} {
		m := Random("t", 512, 512, 10000, target, 99)
		l := m.L()
		if math.Abs(l-target) > 0.35 {
			t.Fatalf("target L %v produced %v", target, l)
		}
	}
}

// TestSuiteSpecsAscendingL pins the suite order the experiments rely
// on: measured L never decreases in spec order, so a subset picked from
// SuiteSpecs is already in the x-axis order of Figures 10 and 11
// without building the rest of the suite.
func TestSuiteSpecsAscendingL(t *testing.T) {
	prev := 0.0
	for i, s := range SuiteSpecs() {
		l := s.Build().L()
		if l < prev {
			t.Fatalf("spec %d (%s): L %v below its predecessor's %v", i, s.Name, l, prev)
		}
		prev = l
	}
}

func TestSuiteLSpreadAndOrder(t *testing.T) {
	ms := BuildSuite()
	if len(ms) != SuiteSize {
		t.Fatal("wrong suite size")
	}
	prev := 0.0
	for _, m := range ms {
		l := m.L()
		if l < prev {
			t.Fatal("suite not sorted by L")
		}
		prev = l
	}
	if ms[0].L() > 1.4 || ms[SuiteSize-1].L() < 7.2 {
		t.Fatalf("L range [%v, %v] too narrow", ms[0].L(), ms[SuiteSize-1].L())
	}
}

func TestTracesCoverExpectedTraffic(t *testing.T) {
	f, proc := newSparseFW(t)
	m := Random("t", 64, 64, 300, 3.0, 5)

	o, layout, err := MapOverlay(f, proc, m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := OverlayTrace(o, layout)
	if err != nil {
		t.Fatal(err)
	}
	loads, overlayLoads, stores := 0, 0, 0
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		switch in.Kind {
		case cpuLoad:
			loads++
		case cpuStore:
			stores++
		case cpuLoadOverlay:
			overlayLoads++
		}
	}
	// One overlay-model load per non-zero matrix line, one x load each.
	if overlayLoads != m.NNZBlocks(64) {
		t.Fatalf("overlay trace matrix loads = %d, want %d", overlayLoads, m.NNZBlocks(64))
	}
	if loads != m.NNZBlocks(64) {
		t.Fatalf("overlay trace x loads = %d, want %d", loads, m.NNZBlocks(64))
	}
	rowsWithData := 0
	for r := 0; r < m.Rows; r++ {
		if len(m.RowCols[r]) > 0 {
			rowsWithData++
		}
	}
	if stores != rowsWithData {
		t.Fatalf("overlay trace stores = %d, want %d", stores, rowsWithData)
	}
}

func TestDenseTraceLineCount(t *testing.T) {
	f, proc := newSparseFW(t)
	m := Random("t", 32, 64, 100, 2.0, 6)
	layout, err := MapDense(f, proc, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := DenseTrace(m, layout)
	loads, stores := 0, 0
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		switch in.Kind {
		case cpuLoad:
			loads++
		case cpuStore:
			stores++
		}
	}
	wantLoads := 2 * m.Rows * (m.Cols / ValuesPerLine)
	if loads != wantLoads || stores != m.Rows {
		t.Fatalf("dense trace loads=%d stores=%d, want %d/%d", loads, stores, wantLoads, m.Rows)
	}
}

func TestCSRTraceGathersPerNNZ(t *testing.T) {
	f, proc := newSparseFW(t)
	m := Random("t", 64, 64, 300, 3.0, 8)
	c := NewCSR(m)
	layout, err := MapCSR(f, proc, c)
	if err != nil {
		t.Fatal(err)
	}
	tr := CSRTrace(c, layout)
	var xGathers, stores int
	for {
		in, ok := tr.Next()
		if !ok {
			break
		}
		if in.Kind == cpuLoad && in.VA >= layout.XBase && in.VA < layout.YBase {
			xGathers++
		}
		if in.Kind == cpuStore {
			stores++
		}
	}
	if xGathers != c.NNZ() {
		t.Fatalf("x gathers = %d, want %d (one per non-zero)", xGathers, c.NNZ())
	}
	if stores != m.Rows {
		t.Fatalf("stores = %d, want %d", stores, m.Rows)
	}
}

// TestCSRTraceAllocsIndependentOfSize pins that a trace generator reuses
// one instruction buffer: draining CSRTrace over a matrix with 4× the
// rows and non-zeros allocates as many times as over the small one.
func TestCSRTraceAllocsIndependentOfSize(t *testing.T) {
	drainAllocs := func(rows int) float64 {
		c := NewCSR(Random("trace", rows, 256, rows*16, 2, 1))
		return testing.AllocsPerRun(5, func() {
			tr := CSRTrace(c, Layout{})
			for {
				if _, ok := tr.Next(); !ok {
					return
				}
			}
		})
	}
	small, large := drainAllocs(128), drainAllocs(512)
	if small != large {
		t.Errorf("draining CSRTrace allocates %.0f times at 128 rows and %.0f at 512", small, large)
	}
}
