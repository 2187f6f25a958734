package tlb

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/arch"
)

// TestRestoredLevelMatchesUncaptured checks that a level capture holding
// only the valid ways is exact. One level runs a seeded mix of inserts,
// invalidates and lookups straight through; its twin runs the same
// calls but is captured and restored into a freshly built level at
// random points. Every invalidate and lookup must return the same on
// both, down to the way's replacement stamp.
func TestRestoredLevelMatchesUncaptured(t *testing.T) {
	const steps = 20000
	for _, g := range []struct{ entries, ways int }{{64, 4}, {1024, 8}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%d/seed%d", g.entries, seed), func(t *testing.T) {
				ref, l := newLevel(g.entries, g.ways), newLevel(g.entries, g.ways)
				rng := rand.New(rand.NewSource(seed))
				restores, hits, drops := 0, 0, 0
				for i := 0; i < steps; i++ {
					if rng.Intn(200) == 0 {
						fresh := newLevel(g.entries, g.ways)
						fresh.restore(l.snapshot())
						l = fresh
						restores++
					}
					// Keys crowd the level (2× its entries), so inserts
					// evict and invalidates leave holes.
					k := key{pid: arch.PID(1 + rng.Intn(2)), vpn: arch.VPN(rng.Intn(g.entries))}
					switch op := rng.Intn(10); {
					case op < 4:
						e := Entry{PPN: arch.PPN(i), OBits: arch.OBitVector(rng.Uint64()), Writable: i%2 == 0}
						ref.insert(k, e)
						l.insert(k, e)
					case op < 6:
						want, got := ref.invalidate(k), l.invalidate(k)
						if got != want {
							t.Fatalf("step %d: invalidate(%v) = %v, want %v", i, k, got, want)
						}
						if want {
							drops++
						}
					default:
						wantWay, want := ref.lookup(k)
						gotWay, got := l.lookup(k)
						if got != want || (want && *gotWay != *wantWay) {
							t.Fatalf("step %d (after %d restores): lookup(%v) = %v, want %v", i, restores, k, got, want)
						}
						if want {
							hits++
						}
					}
				}
				if restores < 50 || hits == 0 || drops == 0 {
					t.Fatalf("sequence too tame: %d restores, %d hits, %d invalidations", restores, hits, drops)
				}
			})
		}
	}
}

// TestFullCaptureNoLargerThanDense checks the capture encoding's worst
// case: with every way valid it holds no more than the dense capture it
// replaced, every way (valid flag included) plus the slice and clock.
func TestFullCaptureNoLargerThanDense(t *testing.T) {
	for _, g := range []struct{ entries, ways int }{{64, 4}, {1024, 8}} {
		l := newLevel(g.entries, g.ways)
		for _, set := range l.sets {
			for w := range set {
				l.clock++
				set[w] = way{valid: true, key: key{pid: 1, vpn: arch.VPN(l.clock)}, stamp: l.clock}
			}
		}
		s := l.snapshot()
		if got, dense := s.bytes(), g.entries*int(unsafe.Sizeof(way{}))+32; got > dense {
			t.Errorf("%d entries: full capture holds %d bytes, the dense capture %d", g.entries, got, dense)
		}
	}
}
