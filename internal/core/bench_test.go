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
			done := sim.Bind(func(uint64) { completed++ }, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				// Stride by a prime number of lines so successive ops walk
				// pages and sets instead of replaying one line.
				line := uint64(n) * 37 % lines
				port.Read(proc.PID, arch.VirtAddr(line<<arch.LineShift), done)
				line = (line + lines/2) % lines
				port.Write(proc.PID, arch.VirtAddr(line<<arch.LineShift), done)
				f.Engine.Run()
			}
			if completed != 2*b.N {
				b.Fatalf("completed %d accesses, want %d", completed, 2*b.N)
			}
		})
	}
}

// BenchmarkPortCOWWrite times conventional copy-on-write through a Port
// under the baseline backend: each op stores once to every page of a
// 64-page process that was just forked, so every store traps, copies
// its page's 64 lines and shoots down the TLBs, and the engine drains.
// The fork and the child's exit run outside the timer, after 200
// untimed rounds bring the free lists to their peak.
func BenchmarkPortCOWWrite(b *testing.B) {
	const pages = 64
	f, err := core.New(backendConfig("baseline"))
	if err != nil {
		b.Fatal(err)
	}
	parent := f.VM.NewProcess()
	if err := f.VM.MapAnon(parent, 0, pages); err != nil {
		b.Fatal(err)
	}
	port := f.NewPort()
	var completed int
	done := sim.Bind(func(uint64) { completed++ }, 0)
	storeAll := func() {
		for vpn := 0; vpn < pages; vpn++ {
			port.Write(parent.PID, arch.VirtAddr(vpn*arch.PageSize), done)
		}
		f.Engine.Run()
	}
	for i := 0; i < 200; i++ {
		child := f.Fork(parent, false)
		storeAll()
		f.Exit(child)
	}
	completed = 0
	copies := f.Engine.Stats.Get("core.cow_page_copies")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		child := f.Fork(parent, false)
		b.StartTimer()
		storeAll()
		b.StopTimer()
		f.Exit(child)
		b.StartTimer()
	}
	b.StopTimer()
	if completed != pages*b.N {
		b.Fatalf("completed %d stores, want %d", completed, pages*b.N)
	}
	if got := f.Engine.Stats.Get("core.cow_page_copies") - copies; got != uint64(pages*b.N) {
		b.Fatalf("%d page copies, want %d", got, pages*b.N)
	}
}
