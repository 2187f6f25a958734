// Package tlb models the two-level TLB of Table 2 (64-entry 4-way L1,
// 1 cycle; 1024-entry L2, 10 cycles; miss/page-walk = 1000 cycles), with
// each entry extended by the page's OBitVector (§4, change Ì in Fig. 6).
//
// The package also implements the two ways entries change under the
// overlay framework: whole-page shootdowns (the expensive path used by
// conventional copy-on-write remaps) and single-line OBitVector updates
// delivered through the cache-coherence network by the "overlaying read
// exclusive" message (§4.3.3), which avoid shootdowns entirely.
package tlb

import (
	"repro/internal/arch"
	"repro/internal/sim"
)

// Entry is one cached translation, extended with overlay state.
type Entry struct {
	PPN        arch.PPN
	OBits      arch.OBitVector
	HasOverlay bool // page has an overlay mapping
	COW        bool // page is marked copy-on-write in the page tables
	Writable   bool
}

// Walker resolves TLB misses from the page tables (and the OMT, for the
// OBitVector). It returns the filled entry plus the cycles the walk
// itself cost — translation backends with non-uniform walks (hashed
// restrictive sets, flat block tables) price each miss individually,
// while the conventional 4-level walk always reports Config.WalkLatency.
// ok=false means a page fault; the walk latency is still paid.
type Walker interface {
	Walk(pid arch.PID, vpn arch.VPN) (Entry, sim.Cycle, bool)
}

// Config sizes the TLB hierarchy.
type Config struct {
	L1Entries, L1Ways int
	L2Entries, L2Ways int
	L1Latency         sim.Cycle
	L2Latency         sim.Cycle
	WalkLatency       sim.Cycle
	ShootdownLatency  sim.Cycle // cost of a conventional full-page TLB shootdown
}

// DefaultConfig mirrors Table 2; the shootdown cost follows the ~6 µs
// figures reported for inter-processor-interrupt based shootdowns
// (Villavieja et al., PACT 2011), scaled to a single-socket victim.
func DefaultConfig() Config {
	return Config{
		L1Entries: 64, L1Ways: 4,
		L2Entries: 1024, L2Ways: 8,
		L1Latency:        1,
		L2Latency:        10,
		WalkLatency:      1000,
		ShootdownLatency: 4000,
	}
}

type key struct {
	pid arch.PID
	vpn arch.VPN
}

type way struct {
	valid bool
	key   key
	entry Entry
	stamp uint64
}

type level struct {
	sets  [][]way
	clock uint64
}

func newLevel(entries, ways int) *level {
	sets := entries / ways
	l := &level{sets: make([][]way, sets)}
	backing := make([]way, entries)
	for i := range l.sets {
		l.sets[i], backing = backing[:ways], backing[ways:]
	}
	return l
}

func (l *level) set(k key) []way {
	return l.sets[(uint64(k.vpn)^uint64(k.pid)<<4)%uint64(len(l.sets))]
}

func (l *level) lookup(k key) (*way, bool) {
	s := l.set(k)
	for i := range s {
		if s[i].valid && s[i].key == k {
			l.clock++
			s[i].stamp = l.clock
			return &s[i], true
		}
	}
	return nil, false
}

func (l *level) insert(k key, e Entry) {
	s := l.set(k)
	victim := 0
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].stamp < s[victim].stamp {
			victim = i
		}
	}
	l.clock++
	s[victim] = way{valid: true, key: k, entry: e, stamp: l.clock}
}

func (l *level) invalidate(k key) bool {
	s := l.set(k)
	for i := range s {
		if s[i].valid && s[i].key == k {
			s[i] = way{}
			return true
		}
	}
	return false
}

func (l *level) update(k key, fn func(*Entry)) bool {
	s := l.set(k)
	for i := range s {
		if s[i].valid && s[i].key == k {
			fn(&s[i].entry)
			return true
		}
	}
	return false
}

func (l *level) flushPID(pid arch.PID) {
	for si := range l.sets {
		for wi := range l.sets[si] {
			if l.sets[si][wi].valid && l.sets[si][wi].key.pid == pid {
				l.sets[si][wi] = way{}
			}
		}
	}
}

// TLB is the two-level TLB.
type TLB struct {
	cfg       Config
	l1, l2    *level
	walker    Walker
	stats     *sim.Stats
	lookupLat *sim.Histogram // every translation's latency (hits and misses)
	walkLat   *sim.Histogram // miss path only: L1 + L2 probes + page walk

	l1Hits      *uint64
	l2Hits      *uint64
	misses      *uint64
	shootdowns  *uint64
	lineUpdates *uint64
}

// New builds a TLB backed by the walker.
func New(cfg Config, walker Walker, stats *sim.Stats) *TLB {
	return &TLB{
		cfg:         cfg,
		l1:          newLevel(cfg.L1Entries, cfg.L1Ways),
		l2:          newLevel(cfg.L2Entries, cfg.L2Ways),
		walker:      walker,
		stats:       stats,
		lookupLat:   stats.Histogram("tlb.lookup_cycles"),
		walkLat:     stats.Histogram("tlb.walk_cycles"),
		l1Hits:      stats.Counter("tlb.l1_hits"),
		l2Hits:      stats.Counter("tlb.l2_hits"),
		misses:      stats.Counter("tlb.misses"),
		shootdowns:  stats.Counter("tlb.shootdowns"),
		lineUpdates: stats.Counter("tlb.line_updates"),
	}
}

// Lookup translates (pid, vpn). It returns the entry, the lookup latency
// in cycles, and ok=false on a page fault (entry is zero then; the
// latency still covers the failed walk).
func (t *TLB) Lookup(pid arch.PID, vpn arch.VPN) (Entry, sim.Cycle, bool) {
	k := key{pid, vpn}
	if w, ok := t.l1.lookup(k); ok {
		*t.l1Hits++
		t.lookupLat.Observe(uint64(t.cfg.L1Latency))
		return w.entry, t.cfg.L1Latency, true
	}
	if w, ok := t.l2.lookup(k); ok {
		*t.l2Hits++
		e := w.entry
		t.l1.insert(k, e)
		t.lookupLat.Observe(uint64(t.cfg.L1Latency + t.cfg.L2Latency))
		return e, t.cfg.L1Latency + t.cfg.L2Latency, true
	}
	*t.misses++
	e, wlat, ok := t.walker.Walk(pid, vpn)
	lat := t.cfg.L1Latency + t.cfg.L2Latency + wlat
	t.lookupLat.Observe(uint64(lat))
	t.walkLat.Observe(uint64(lat))
	if !ok {
		return Entry{}, lat, false
	}
	t.l2.insert(k, e)
	t.l1.insert(k, e)
	return e, lat, true
}

// Peek returns the cached entry without latency accounting or fills
// (test/debug aid).
func (t *TLB) Peek(pid arch.PID, vpn arch.VPN) (Entry, bool) {
	k := key{pid, vpn}
	if w, ok := t.l1.lookup(k); ok {
		return w.entry, true
	}
	if w, ok := t.l2.lookup(k); ok {
		return w.entry, true
	}
	return Entry{}, false
}

// Shootdown invalidates the page's entry in both levels and returns the
// cost of the conventional shootdown protocol. Conventional CoW remaps
// pay this on the critical path (§2.2).
func (t *TLB) Shootdown(pid arch.PID, vpn arch.VPN) sim.Cycle {
	k := key{pid, vpn}
	t.l1.invalidate(k)
	t.l2.invalidate(k)
	*t.shootdowns++
	return t.cfg.ShootdownLatency
}

// Invalidate drops the entry without charging shootdown cost (used when
// the OS edits mappings off the critical path).
func (t *TLB) Invalidate(pid arch.PID, vpn arch.VPN) {
	k := key{pid, vpn}
	t.l1.invalidate(k)
	t.l2.invalidate(k)
}

// UpdateLine applies a single-line OBitVector change delivered by the
// overlaying-read-exclusive coherence message: cheap, no shootdown. It
// reports whether any cached entry was updated.
func (t *TLB) UpdateLine(pid arch.PID, vpn arch.VPN, lineIdx int, inOverlay bool) bool {
	k := key{pid, vpn}
	fn := func(e *Entry) {
		if inOverlay {
			e.OBits = e.OBits.Set(lineIdx)
			e.HasOverlay = true
		} else {
			e.OBits = e.OBits.Clear(lineIdx)
		}
	}
	u1 := t.l1.update(k, fn)
	u2 := t.l2.update(k, fn)
	if u1 || u2 {
		*t.lineUpdates++
	}
	return u1 || u2
}

// FlushPID drops every entry of the process (context teardown).
func (t *TLB) FlushPID(pid arch.PID) {
	t.l1.flushPID(pid)
	t.l2.flushPID(pid)
}
