package core_test

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/sim"
)

// BenchmarkPortAccess times the per-access path every timed run takes,
// under each backend: one timed load and one plain store through a Port
// per op, with the engine drained per op. The 2 MB footprint is past L1
// and L2 and the size of L3, so ops reach the backend's walk, fetch and
// write-back paths as well as its translation and write resolution.
func BenchmarkPortAccess(b *testing.B) {
	const (
		pages = 2 << 20 / arch.PageSize
		lines = pages * arch.LinesPerPage
	)
	for _, name := range core.Backends() {
		b.Run(name, func(b *testing.B) {
			f, err := core.New(backendConfig(name))
			if err != nil {
				b.Fatal(err)
			}
			proc := f.VM.NewProcess()
			if err := f.VM.MapAnon(proc, 0, pages); err != nil {
				b.Fatal(err)
			}
			port := f.NewPort()
			var completed int
			done := sim.ContOf(func() { completed++ })
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Stride by a prime number of lines so successive ops walk
				// pages and sets instead of replaying one line.
				line := uint64(n) * 37 % lines
				port.ReadCont(proc.PID, arch.VirtAddr(line<<arch.LineShift), done)
				line = (line + lines/2) % lines
				port.WriteCont(proc.PID, arch.VirtAddr(line<<arch.LineShift), done)
				f.Engine.Run()
			}
			if completed != 2*b.N {
				b.Fatalf("completed %d accesses, want %d", completed, 2*b.N)
			}
		})
	}
}
