package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/arch"
)

// The reference model: a set-of-slices cache with per-set LRU stamps and
// DRRIP RRPVs, the layout this package used before its tag store went
// flat. It stays here, renamed and otherwise unchanged, so the flat store
// can be checked against it call for call.

type refLine struct {
	valid bool
	dirty bool
	tag   uint64
}

type refCache struct {
	sets int
	data [][]refLine
	repl Replacement

	Hits   uint64
	Misses uint64
}

func newRefCache(sizeBytes, ways int, newRepl func(sets, ways int) Replacement) *refCache {
	sets := sizeBytes / arch.LineSize / ways
	data := make([][]refLine, sets)
	backing := make([]refLine, sets*ways)
	for i := range data {
		data[i], backing = backing[:ways], backing[ways:]
	}
	return &refCache{sets: sets, data: data, repl: newRepl(sets, ways)}
}

func (c *refCache) index(addr arch.PhysAddr) (set int, tag uint64) {
	lineNum := uint64(addr) >> arch.LineShift
	return int(lineNum % uint64(c.sets)), lineNum
}

func (c *refCache) find(addr arch.PhysAddr) (set, way int, ok bool) {
	set, tag := c.index(addr)
	for w := range c.data[set] {
		if l := &c.data[set][w]; l.valid && l.tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

func (c *refCache) Lookup(addr arch.PhysAddr, write bool) bool {
	set, way, ok := c.find(addr)
	if !ok {
		c.Misses++
		c.repl.OnMiss(set)
		return false
	}
	c.Hits++
	c.repl.OnHit(set, way)
	if write {
		c.data[set][way].dirty = true
	}
	return true
}

func (c *refCache) Present(addr arch.PhysAddr) bool {
	_, _, ok := c.find(addr)
	return ok
}

func (c *refCache) Fill(addr arch.PhysAddr, dirty bool) (ev Eviction, evicted bool) {
	set, tag := c.index(addr)
	for w := range c.data[set] {
		if l := &c.data[set][w]; l.valid && l.tag == tag {
			l.dirty = l.dirty || dirty
			c.repl.OnFill(set, w)
			return Eviction{}, false
		}
	}
	way := -1
	for w := range c.data[set] {
		if !c.data[set][w].valid {
			way = w
			break
		}
	}
	if way == -1 {
		way = c.repl.Victim(set)
		v := c.data[set][way]
		ev = Eviction{Addr: arch.PhysAddr(v.tag << arch.LineShift), Dirty: v.dirty}
		evicted = true
	}
	c.data[set][way] = refLine{valid: true, dirty: dirty, tag: tag}
	c.repl.OnFill(set, way)
	return ev, evicted
}

func (c *refCache) Invalidate(addr arch.PhysAddr) (present, dirty bool) {
	set, way, ok := c.find(addr)
	if !ok {
		return false, false
	}
	dirty = c.data[set][way].dirty
	c.data[set][way] = refLine{}
	return true, dirty
}

func (c *refCache) Retag(oldAddr, newAddr arch.PhysAddr) (moved bool, ev Eviction, evicted bool) {
	set, way, ok := c.find(oldAddr)
	if !ok {
		return false, Eviction{}, false
	}
	dirty := c.data[set][way].dirty
	newSet, newTag := c.index(newAddr)
	if newSet == set {
		c.data[set][way].tag = newTag
		return true, Eviction{}, false
	}
	c.data[set][way] = refLine{}
	ev, evicted = c.Fill(newAddr, dirty)
	return true, ev, evicted
}

func (c *refCache) SetDirty(addr arch.PhysAddr) bool {
	set, way, ok := c.find(addr)
	if !ok {
		return false
	}
	c.data[set][way].dirty = true
	return true
}

func (c *refCache) DirtyLines() []arch.PhysAddr {
	var out []arch.PhysAddr
	for s := range c.data {
		for w := range c.data[s] {
			if l := c.data[s][w]; l.valid && l.dirty {
				out = append(out, arch.PhysAddr(l.tag<<arch.LineShift))
			}
		}
	}
	return out
}

type refLRU struct {
	stamp [][]uint64
	clock uint64
}

func newRefLRU(sets, ways int) Replacement {
	s := make([][]uint64, sets)
	backing := make([]uint64, sets*ways)
	for i := range s {
		s[i], backing = backing[:ways], backing[ways:]
	}
	return &refLRU{stamp: s}
}

func (l *refLRU) touch(set, way int) {
	l.clock++
	l.stamp[set][way] = l.clock
}

func (l *refLRU) OnHit(set, way int)  { l.touch(set, way) }
func (l *refLRU) OnMiss(set int)      {}
func (l *refLRU) OnFill(set, way int) { l.touch(set, way) }

func (l *refLRU) Victim(set int) int {
	best, bestStamp := 0, l.stamp[set][0]
	for w := 1; w < len(l.stamp[set]); w++ {
		if l.stamp[set][w] < bestStamp {
			best, bestStamp = w, l.stamp[set][w]
		}
	}
	return best
}

type refDRRIP struct {
	rrpv    [][]uint8
	psel    int
	fillSeq uint64
}

func newRefDRRIP(sets, ways int) Replacement {
	r := make([][]uint8, sets)
	backing := make([]uint8, sets*ways)
	for i := range backing {
		backing[i] = rrpvMax
	}
	for i := range r {
		r[i], backing = backing[:ways], backing[ways:]
	}
	return &refDRRIP{rrpv: r, psel: pselMax / 2}
}

func (d *refDRRIP) leader(set int) int {
	switch set % duelPeriod {
	case 0:
		return 1
	case duelPeriod / 2:
		return -1
	default:
		return 0
	}
}

func (d *refDRRIP) OnHit(set, way int) { d.rrpv[set][way] = 0 }

func (d *refDRRIP) OnMiss(set int) {
	switch d.leader(set) {
	case 1:
		if d.psel > 0 {
			d.psel--
		}
	case -1:
		if d.psel < pselMax {
			d.psel++
		}
	}
}

func (d *refDRRIP) useSRRIP(set int) bool {
	switch d.leader(set) {
	case 1:
		return true
	case -1:
		return false
	default:
		return d.psel >= pselMax/2
	}
}

func (d *refDRRIP) OnFill(set, way int) {
	d.fillSeq++
	if d.useSRRIP(set) {
		d.rrpv[set][way] = rrpvLong
		return
	}
	if d.fillSeq%brripEpsilon == 0 {
		d.rrpv[set][way] = rrpvLong
	} else {
		d.rrpv[set][way] = rrpvMax
	}
}

func (d *refDRRIP) Victim(set int) int {
	row := d.rrpv[set]
	for {
		for w, v := range row {
			if v == rrpvMax {
				return w
			}
		}
		for w := range row {
			row[w]++
		}
	}
}

// refGeometries are the Table 2 levels: LRU L1 and L2, DRRIP L3.
var refGeometries = []struct {
	name      string
	size      int
	ways      int
	flat, ref func(sets, ways int) Replacement
}{
	{"l1", 64 << 10, 4, NewLRU, newRefLRU},
	{"l2", 512 << 10, 8, NewLRU, newRefLRU},
	{"l3", 2 << 20, 16, NewDRRIP, newRefDRRIP},
}

// refAddrs draws addresses that crowd a few sets, so fills evict, retags
// collide and (on L3) DRRIP leader sets of both kinds see misses. Half
// the sets drawn are leaders: set 0 and every multiple of duelPeriod are
// SRRIP leaders, the sets halfway between are BRRIP leaders.
type refAddrs struct {
	rng       *rand.Rand
	sets      int
	ways      int
	hot       []int
	evictions int
}

func newRefAddrs(rng *rand.Rand, sets, ways int) *refAddrs {
	a := &refAddrs{rng: rng, sets: sets, ways: ways}
	for i := 0; i < 6 && i*duelPeriod < sets; i++ {
		a.hot = append(a.hot, i*duelPeriod, i*duelPeriod+duelPeriod/2, i*duelPeriod+1)
	}
	return a
}

// line picks a line number: usually one of 3×ways tags in a hot set,
// sometimes anywhere.
func (a *refAddrs) line() uint64 {
	if a.rng.Intn(8) == 0 {
		return uint64(a.rng.Intn(4 * a.sets * a.ways))
	}
	set := a.hot[a.rng.Intn(len(a.hot))]
	return uint64(set + a.sets*a.rng.Intn(3*a.ways))
}

// addr turns a line into an address, some of them in the Overlay
// Address Space.
func (a *refAddrs) addr() arch.PhysAddr {
	p := arch.PhysAddr(a.line() << arch.LineShift)
	if a.rng.Intn(4) == 0 {
		p |= arch.PhysAddr(arch.OverlayBit)
	}
	return p
}

// retagTarget returns a new address for old: its overlay twin or
// another tag in the same set, or an address in another set.
func (a *refAddrs) retagTarget(old arch.PhysAddr) arch.PhysAddr {
	switch a.rng.Intn(3) {
	case 0:
		return old ^ arch.PhysAddr(arch.OverlayBit)
	case 1:
		return old + arch.PhysAddr(uint64(a.sets*(1+a.rng.Intn(2*a.ways)))<<arch.LineShift)
	default:
		return a.addr()
	}
}

// step applies one random call to both caches and reports the first
// difference in return values.
func (a *refAddrs) step(flat *Cache, ref *refCache) error {
	p := a.addr()
	switch op := a.rng.Intn(20); {
	case op < 6:
		write := op%2 == 1
		if got, want := flat.Lookup(p, write), ref.Lookup(p, write); got != want {
			return fmt.Errorf("Lookup(%#x, %v) = %v, want %v", p, write, got, want)
		}
	case op < 12:
		dirty := op%2 == 1
		gotEv, gotOK := flat.Fill(p, dirty)
		wantEv, wantOK := ref.Fill(p, dirty)
		if gotEv != wantEv || gotOK != wantOK {
			return fmt.Errorf("Fill(%#x, %v) = %+v %v, want %+v %v", p, dirty, gotEv, gotOK, wantEv, wantOK)
		}
		if wantOK {
			a.evictions++
		}
	case op < 14:
		if got, want := flat.Present(p), ref.Present(p); got != want {
			return fmt.Errorf("Present(%#x) = %v, want %v", p, got, want)
		}
	case op < 15:
		gp, gd := flat.Invalidate(p)
		wp, wd := ref.Invalidate(p)
		if gp != wp || gd != wd {
			return fmt.Errorf("Invalidate(%#x) = %v %v, want %v %v", p, gp, gd, wp, wd)
		}
	case op < 16:
		if got, want := flat.SetDirty(p), ref.SetDirty(p); got != want {
			return fmt.Errorf("SetDirty(%#x) = %v, want %v", p, got, want)
		}
	default:
		to := a.retagTarget(p)
		gm, gev, gok := flat.Retag(p, to)
		wm, wev, wok := ref.Retag(p, to)
		if gm != wm || gev != wev || gok != wok {
			return fmt.Errorf("Retag(%#x, %#x) = %v %+v %v, want %v %+v %v", p, to, gm, gev, gok, wm, wev, wok)
		}
	}
	return nil
}

func sameState(flat *Cache, ref *refCache) error {
	if flat.Hits != ref.Hits || flat.Misses != ref.Misses {
		return fmt.Errorf("hits/misses = %d/%d, want %d/%d", flat.Hits, flat.Misses, ref.Hits, ref.Misses)
	}
	if got, want := flat.DirtyLines(), ref.DirtyLines(); !slices.Equal(got, want) {
		return fmt.Errorf("DirtyLines differ: %d lines, want %d", len(got), len(want))
	}
	return nil
}

// TestFlatTagStoreMatchesReference drives the flat cache and the
// reference with the same seeded call sequence at each Table 2 geometry,
// and checks that a Snapshot restored onto a fresh cache carries on
// exactly where the original left off.
func TestFlatTagStoreMatchesReference(t *testing.T) {
	const steps = 40000
	for _, g := range refGeometries {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				flat := New(g.name, g.size, g.ways, g.flat)
				ref := newRefCache(g.size, g.ways, g.ref)
				a := newRefAddrs(rand.New(rand.NewSource(seed)), flat.Sets(), g.ways)
				for i := 0; i < steps; i++ {
					if i == steps/2 {
						fresh := New(g.name, g.size, g.ways, g.flat)
						fresh.Restore(flat.Snapshot())
						flat = fresh
					}
					if err := a.step(flat, ref); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if i%1000 == 999 {
						if err := sameState(flat, ref); err != nil {
							t.Fatalf("step %d: %v", i, err)
						}
					}
				}
				if err := sameState(flat, ref); err != nil {
					t.Fatal(err)
				}
				if flat.Hits == 0 || flat.Misses == 0 || a.evictions == 0 || len(flat.DirtyLines()) == 0 {
					t.Fatalf("sequence too tame: hits %d misses %d evictions %d dirty %d",
						flat.Hits, flat.Misses, a.evictions, len(flat.DirtyLines()))
				}
			})
		}
	}
}

// TestRestoredLevelMatchesReference checks that a capture holding only
// the valid ways is exact. At random points the level is captured and
// restored into a freshly built one, whose empty ways hold constructor
// values where the reference's hold stale replacement words, and both
// carry on with the same calls: lookups, fills, invalidates and retags
// within and across sets. Every call's result (hits, victims and their
// dirty state) and the hit/miss totals and dirty lines must match the
// reference after every step.
func TestRestoredLevelMatchesReference(t *testing.T) {
	const steps = 3000
	for _, g := range refGeometries {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", g.name, seed), func(t *testing.T) {
				flat := New(g.name, g.size, g.ways, g.flat)
				ref := newRefCache(g.size, g.ways, g.ref)
				rng := rand.New(rand.NewSource(seed))
				a := newRefAddrs(rand.New(rand.NewSource(seed+100)), flat.Sets(), g.ways)
				restores := 0
				for i := 0; i < steps; i++ {
					if rng.Intn(60) == 0 {
						fresh := New(g.name, g.size, g.ways, g.flat)
						fresh.Restore(flat.Snapshot())
						flat = fresh
						restores++
					}
					if err := a.step(flat, ref); err != nil {
						t.Fatalf("step %d (after %d restores): %v", i, restores, err)
					}
					if err := sameState(flat, ref); err != nil {
						t.Fatalf("step %d (after %d restores): %v", i, restores, err)
					}
				}
				if restores < 10 || a.evictions == 0 {
					t.Fatalf("sequence too tame: %d restores, %d evictions", restores, a.evictions)
				}
			})
		}
	}
}

// TestFullCaptureNoLargerThanDense checks the capture encoding's worst
// case: with every way valid it holds no more than the dense capture it
// replaced, which kept a tag word, a dirty byte and a replacement word
// for every way.
func TestFullCaptureNoLargerThanDense(t *testing.T) {
	for _, g := range refGeometries {
		c := New(g.name, g.size, g.ways, g.flat)
		n := c.Sets() * c.Ways()
		for line := 0; line < n; line++ {
			c.Fill(arch.PhysAddr(line<<arch.LineShift), line%2 == 0)
		}
		word := 8 // LRU stamp
		if _, ok := c.repl.(*drrip); ok {
			word = 1 // DRRIP RRPV
		}
		if got, dense := c.Snapshot().Bytes(), n*(8+1+word); got > dense {
			t.Errorf("%s: full capture holds %d bytes, the dense capture %d", g.name, got, dense)
		}
	}
}
