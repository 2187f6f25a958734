package arch

import (
	"math/rand"
	"testing"
)

// collidingLines returns n line numbers that all hash to the given home
// slot of a 16-slot map, the size a fresh LineMap starts at.
func collidingLines(home uint64, n int) []uint64 {
	var out []uint64
	for k := uint64(0); len(out) < n; k++ {
		if lineHash(k)&15 == home {
			out = append(out, k)
		}
	}
	return out
}

func checkLineMap(t *testing.T, m *LineMap[int], ref map[uint64]int, probe []uint64) {
	t.Helper()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	for _, k := range probe {
		got, ok := m.Get(k)
		want, wantOK := ref[k]
		if got != want || ok != wantOK {
			t.Fatalf("Get(%#x) = %d %v, want %d %v", k, got, ok, want, wantOK)
		}
	}
}

// TestLineMapMatchesGoMap runs seeded random Put/Delete sequences against
// a Go map. The key pool mixes keys colliding on one home slot (one of
// them the last slot, so clusters wrap around the ring), keys spread
// across the table, and the largest line numbers, and holds enough keys
// to force several doublings.
func TestLineMapMatchesGoMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := append(collidingLines(3, 12), collidingLines(15, 12)...)
		for i := 0; i < 200; i++ {
			pool = append(pool, uint64(rng.Int63n(1<<(64-LineShift))))
		}
		pool = append(pool, 1<<(64-LineShift)-1, 0)

		var m LineMap[int]
		ref := map[uint64]int{}
		for i := 0; i < 20000; i++ {
			k := pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0, 1:
				m.Put(k, i)
				ref[k] = i
			default:
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				delete(ref, k)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Delete(%#x) = %d %v, want %d %v", seed, i, k, got, ok, want, wantOK)
				}
			}
			if i%97 == 0 {
				checkLineMap(t, &m, ref, pool)
			}
		}
		checkLineMap(t, &m, ref, pool)
	}
}

// TestLineMapCollisionCluster fills one home slot's cluster, deletes from
// its middle and checks every survivor is still found (backward shift
// must close the gap), then refills it.
func TestLineMapCollisionCluster(t *testing.T) {
	keys := collidingLines(15, 7) // 7 keys stay under the 16-slot growth point
	var m LineMap[int]
	for i, k := range keys {
		m.Put(k, i)
	}
	if len(m.keys) != 16 {
		t.Fatalf("map grew to %d slots before half full", len(m.keys))
	}
	for _, i := range []int{0, 3, 5} {
		if v, ok := m.Delete(keys[i]); !ok || v != i {
			t.Fatalf("Delete(keys[%d]) = %d %v", i, v, ok)
		}
	}
	for i, k := range keys {
		v, ok := m.Get(k)
		deleted := i == 0 || i == 3 || i == 5
		if ok == deleted || (ok && v != i) {
			t.Fatalf("Get(keys[%d]) = %d %v after deletes", i, v, ok)
		}
	}
	for i, k := range keys {
		m.Put(k, 10+i)
	}
	if m.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(keys))
	}
	for i, k := range keys {
		if v, ok := m.Get(k); !ok || v != 10+i {
			t.Fatalf("Get(keys[%d]) = %d %v after refill", i, v, ok)
		}
	}
	// An empty map answers without probing.
	var empty LineMap[int]
	if _, ok := empty.Get(1); ok {
		t.Fatal("Get on an empty map found a key")
	}
	if _, ok := empty.Delete(1); ok {
		t.Fatal("Delete on an empty map found a key")
	}
}
