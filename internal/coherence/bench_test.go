package coherence

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// syncMem serves fetches instantly; the benchmark measures protocol and
// table costs, not the memory below.
type syncMem struct{}

func (syncMem) Fetch(addr arch.PhysAddr, done sim.Cont) { done.Invoke() }
func (syncMem) WriteBack(addr arch.PhysAddr)            {}

// BenchmarkMESILookup measures a coherent read against a warm domain:
// the flat per-page state/directory lookup plus the protocol's hit
// path, across a working set large enough to step through many pages.
func BenchmarkMESILookup(b *testing.B) {
	e := sim.NewEngine()
	d := New(e, DefaultConfig(), syncMem{})
	const pages = 64
	const lines = pages * arch.LinesPerPage
	addr := func(i int) arch.PhysAddr {
		return arch.PhysAddr(i%lines) << arch.LineShift
	}
	for i := 0; i < lines; i++ {
		d.Read(i%d.Cores(), addr(i), sim.Cont{})
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d.Read(n%d.Cores(), addr(n), sim.Cont{})
		e.Run()
	}
}
