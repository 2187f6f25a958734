package sim

import "testing"

// BenchmarkEngineStep measures the steady-state schedule→pop→invoke
// cycle of the calendar-queue scheduler across the three delay regimes:
// same-cycle, in-window, and overflow-heap distances. CI gates on this
// benchmark reporting 0 allocs/op — the hot path must run entirely on
// the node free list.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	delays := [4]Cycle{0, 1, 100, windowSize + 512}
	var i int
	var fn ArgEvent
	fn = func(uint64) {
		e.Schedule(delays[i&3], Bind(fn, 0))
		i++
	}
	// Keep a few events in flight so buckets and the overflow heap both
	// stay populated.
	for j := 0; j < 8; j++ {
		e.Schedule(Cycle(j), Bind(fn, 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if !e.Step() {
			b.Fatal("engine drained")
		}
	}
}
