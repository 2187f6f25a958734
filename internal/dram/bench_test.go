package dram

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

// BenchmarkDRAMAccess measures a read plus a write-buffer write through
// the controller, including FR-FCFS scheduling, bank/row bookkeeping,
// and the pending-write line table, with addresses striding across rows
// and banks.
func BenchmarkDRAMAccess(b *testing.B) {
	e := sim.NewEngine()
	c := New(e, DefaultConfig())
	var sink int
	done := sim.Bind(func(uint64) { sink++ }, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		// Stride by a prime number of lines so successive accesses walk
		// rows and banks instead of replaying one row buffer.
		addr := arch.PhysAddr(uint64(n) * 37 << arch.LineShift)
		c.Read(addr, done)
		c.Write(addr)
		e.Run()
	}
	if sink != b.N {
		b.Fatalf("completed %d reads, want %d", sink, b.N)
	}
}
