package arch

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// radixModel is one tree under test and the map it must match.
type radixModel struct {
	tree Radix[uint64]
	ref  map[uint64]uint64
}

func (m *radixModel) fork() *radixModel {
	ref := make(map[uint64]uint64, len(m.ref))
	for k, v := range m.ref {
		ref[k] = v
	}
	return &radixModel{tree: m.tree, ref: ref}
}

// check compares the tree with its map: Range must yield exactly the
// map's entries in ascending key order, and Get must return each one.
func (m *radixModel) check() error {
	var keys []uint64
	var err error
	m.tree.Range(func(k, v uint64) bool {
		if want, ok := m.ref[k]; !ok || want != v {
			err = fmt.Errorf("Range yields %#x=%#x, reference holds %#x (present %v)", k, v, want, ok)
		} else if len(keys) > 0 && keys[len(keys)-1] >= k {
			err = fmt.Errorf("Range out of order: %#x after %#x", k, keys[len(keys)-1])
		}
		keys = append(keys, k)
		return err == nil
	})
	if err != nil {
		return err
	}
	if len(keys) != len(m.ref) {
		return fmt.Errorf("Range yields %d keys, reference holds %d", len(keys), len(m.ref))
	}
	for k, v := range m.ref {
		if got := m.tree.Get(k); got != v {
			return fmt.Errorf("Get(%#x) = %#x, want %#x", k, got, v)
		}
	}
	return nil
}

// radixKeys draws keys from a few leaves spread over the full width,
// clustered around their boundaries, and reuses earlier keys half the
// time so writes, gets and deletes hit present keys as well as absent
// ones. Few leaves keep the check after every step cheap.
type radixKeys struct {
	rng    *rand.Rand
	bits   uint
	leaves []uint64
	used   []uint64
}

func newRadixKeys(rng *rand.Rand, bits uint) *radixKeys {
	g := &radixKeys{rng: rng, bits: bits}
	for i := 0; i < 5; i++ {
		g.leaves = append(g.leaves, rng.Uint64()&(1<<bits-1)&^radixMask)
	}
	g.leaves = append(g.leaves, 0, 1<<bits-radixFanout) // both ends
	return g
}

func (g *radixKeys) next() uint64 {
	if len(g.used) > 0 && g.rng.Intn(2) == 0 {
		return g.used[g.rng.Intn(len(g.used))]
	}
	leaf := g.leaves[g.rng.Intn(len(g.leaves))]
	offsets := []uint64{0, 1, radixMask - 1, radixMask, radixFanout, radixFanout + 1, uint64(g.rng.Intn(radixFanout))}
	k := (leaf + offsets[g.rng.Intn(len(offsets))]) & (1<<g.bits - 1)
	g.used = append(g.used, k)
	return k
}

// step applies one random operation to m.
func (m *radixModel) step(rng *rand.Rand, keys *radixKeys) {
	k := keys.next()
	switch op := rng.Intn(10); {
	case op < 5:
		v := rng.Uint64() | 1
		*m.tree.Ref(k) = v
		m.ref[k] = v
	case op < 7:
		*m.tree.Ref(k) = 0 // a delete; may create the path to an absent key
		delete(m.ref, k)
	default:
		_ = m.tree.Get(k) // a read; check compares every key after the step
	}
}

// radixCapture is a shared tree and the reference it must keep matching.
type radixCapture struct {
	model *radixModel
	step  int
}

// TestRadixMatchesMapAcrossForks runs a seeded mix of writes, deletes,
// reads and ranges against map references. At random points a tree is
// captured and 2–3 forks of the capture continue with mixes of their
// own; the tree that was captured keeps running too. After every step
// every live tree must match its reference and every capture the
// reference as it stood when it was taken, so a walk that wrote a
// shared node in place would show up in a sibling or in the capture.
func TestRadixMatchesMapAcrossForks(t *testing.T) {
	for _, tc := range []struct {
		levels int
		bits   uint
	}{{4, 36}, {6, 52}} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("levels%d/seed%d", tc.levels, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				keys := newRadixKeys(rng, tc.bits)
				live := []*radixModel{{tree: NewRadix[uint64](tc.levels), ref: map[uint64]uint64{}}}
				var captures []radixCapture
				for step := 0; step < 600; step++ {
					m := live[rng.Intn(len(live))]
					if rng.Intn(50) == 0 && len(live) < 10 {
						frozen := m.fork()
						frozen.tree = m.tree.Share()
						captures = append(captures, radixCapture{frozen, step})
						for n := 2 + rng.Intn(2); n > 0; n-- {
							live = append(live, frozen.fork())
						}
						continue
					}
					m.step(rng, keys)
					for i, lm := range live {
						if err := lm.check(); err != nil {
							t.Fatalf("step %d, tree %d: %v", step, i, err)
						}
					}
					for _, c := range captures {
						if err := c.model.check(); err != nil {
							t.Fatalf("step %d, capture taken at step %d: %v", step, c.step, err)
						}
					}
				}
				if len(captures) == 0 {
					t.Fatal("no capture taken")
				}
			})
		}
	}
}

// TestRadixForksRunConcurrently resumes three forks of one capture in
// their own goroutines while the captured tree keeps writing, so the
// race detector sees any write to a node they share.
func TestRadixForksRunConcurrently(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := newRadixKeys(rng, 52)
	parent := &radixModel{tree: NewRadix[uint64](6), ref: map[uint64]uint64{}}
	for i := 0; i < 500; i++ {
		parent.step(rng, keys)
	}
	frozen := parent.fork()
	frozen.tree = parent.tree.Share()
	models := []*radixModel{parent, frozen.fork(), frozen.fork(), frozen.fork()}
	var wg sync.WaitGroup
	errs := make([]error, len(models))
	for i, m := range models {
		wg.Add(1)
		go func(i int, m *radixModel) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + i)))
			keys := &radixKeys{rng: rng, bits: 52, leaves: keys.leaves, used: append([]uint64(nil), keys.used...)}
			for s := 0; s < 400 && errs[i] == nil; s++ {
				m.step(rng, keys)
				errs[i] = m.check()
			}
		}(i, m)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("tree %d: %v", i, err)
		}
	}
	if err := frozen.check(); err != nil {
		t.Errorf("capture: %v", err)
	}
}

// TestRadixShareAllocatesNothing pins O(1) capture and resume: sharing a
// tree and copying the share allocate no node.
func TestRadixShareAllocatesNothing(t *testing.T) {
	tree := NewRadix[uint64](4)
	for k := uint64(0); k < 4*radixFanout; k += 3 {
		*tree.Ref(k) = k + 1
	}
	var fork Radix[uint64]
	if allocs := testing.AllocsPerRun(100, func() {
		shared := tree.Share()
		fork = shared
	}); allocs != 0 {
		t.Fatalf("Share and resume allocate %.0f times, want 0", allocs)
	}
	if got := fork.Get(3); got != 4 {
		t.Fatalf("fork Get(3) = %d, want 4", got)
	}
}

// TestRadixRangeOrderAcrossLevels checks key reconstruction at the
// extremes of both widths.
func TestRadixRangeOrderAcrossLevels(t *testing.T) {
	for _, levels := range []int{4, 6} {
		tree := NewRadix[uint64](levels)
		top := uint64(1)<<(radixBits*uint(levels)) - 1
		want := []uint64{0, radixMask, radixFanout, top >> 1, top}
		for i, k := range want {
			*tree.Ref(k) = uint64(i + 1)
		}
		var got []uint64
		tree.Range(func(k, v uint64) bool {
			got = append(got, k)
			return true
		})
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("levels %d: Range keys %#x, want %#x", levels, got, want)
		}
	}
}
