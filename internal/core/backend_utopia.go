package core

import (
	"unsafe"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/tlb"
)

// utopiaBackend models Utopia (Kanellopoulos et al., MICRO 2023): a
// hybrid address space in which most pages live in a restrictive set
// (RestSeg) whose physical location is computable from a hash of the
// virtual address — a TLB miss there costs a short computed walk instead
// of the 4-level table walk — while pages that cannot claim a RestSeg
// slot fall back to conventional flexible mappings and pay the full
// walk. Utopia changes nothing about the data path or copy-on-write
// mechanics: stores, COW traps, and shootdowns are exactly the baseline
// control's, which it embeds. What it accelerates is translation, so its
// wins show up in TLB-miss-heavy phases (fresh address spaces after
// fork, sparse walks).
//
// The model claims a RestSeg slot the first time a page is walked
// (set-associative by hash, first-come first-served, never evicted) and
// prices every later walk of that page at UtopiaRestWalkLatency.
type utopiaBackend struct {
	baselineBackend

	rest    [][]restWay
	claimed int // live RestSeg entries (metadata accounting)

	restWalks *uint64
	flexWalks *uint64
	claims    *uint64
}

type restWay struct {
	valid bool
	pid   arch.PID
	vpn   arch.VPN
}

func init() {
	RegisterBackend("utopia", func(f *Framework) TranslationBackend {
		b := &utopiaBackend{
			baselineBackend: baselineBackend{f: f},
			restWalks:       f.Engine.Stats.Counter("utopia.rest_walks"),
			flexWalks:       f.Engine.Stats.Counter("utopia.flex_walks"),
			claims:          f.Engine.Stats.Counter("utopia.restseg_claims"),
		}
		sets, ways := f.Config.UtopiaRestSets, f.Config.UtopiaRestWays
		if sets < 1 {
			sets = 1
		}
		if ways < 1 {
			ways = 1
		}
		b.rest = make([][]restWay, sets)
		backing := make([]restWay, sets*ways)
		for i := range b.rest {
			b.rest[i], backing = backing[:ways], backing[ways:]
		}
		return b
	})
}

func (b *utopiaBackend) Name() string { return "utopia" }

func (b *utopiaBackend) restSet(pid arch.PID, vpn arch.VPN) []restWay {
	h := (uint64(vpn) ^ uint64(pid)<<4) % uint64(len(b.rest))
	return b.rest[h]
}

// restWalkCost reports whether (pid, vpn) translates through the
// RestSeg, claiming a slot on the page's first walk if one is free.
func (b *utopiaBackend) restResident(pid arch.PID, vpn arch.VPN) bool {
	s := b.restSet(pid, vpn)
	for i := range s {
		if s[i].valid && s[i].pid == pid && s[i].vpn == vpn {
			return true
		}
	}
	for i := range s {
		if !s[i].valid {
			s[i] = restWay{valid: true, pid: pid, vpn: vpn}
			b.claimed++
			*b.claims++
			return true
		}
	}
	return false
}

// Walk resolves conventionally but prices the walk by where the page
// lives: RestSeg residents pay the short computed walk, the rest the
// full flexible walk.
func (b *utopiaBackend) Walk(pid arch.PID, vpn arch.VPN) (tlb.Entry, sim.Cycle, bool) {
	e, lat, ok := b.baselineBackend.Walk(pid, vpn)
	if !ok {
		return e, lat, false
	}
	if b.restResident(pid, vpn) {
		*b.restWalks++
		return e, b.f.Config.UtopiaRestWalkLatency, true
	}
	*b.flexWalks++
	return e, lat, true
}

// MetadataBytes models the flexible page tables plus the RestSeg tag
// store (4 B per claimed entry).
func (b *utopiaBackend) MetadataBytes() int {
	return b.baselineBackend.MetadataBytes() + b.claimed*4
}

// utopiaSnapshot carries the RestSeg claims across Snapshot/
// NewFromSnapshot.
type utopiaSnapshot struct {
	rest    [][]restWay
	claimed int
}

func (s *utopiaSnapshot) bytes() int {
	b := int(unsafe.Sizeof(*s))
	for _, set := range s.rest {
		b += 24 + len(set)*int(unsafe.Sizeof(restWay{}))
	}
	return b
}

func (b *utopiaBackend) SnapshotState() any {
	ways := len(b.rest[0])
	s := &utopiaSnapshot{claimed: b.claimed, rest: make([][]restWay, len(b.rest))}
	backing := make([]restWay, len(b.rest)*ways)
	for i := range b.rest {
		s.rest[i], backing = backing[:ways], backing[ways:]
		copy(s.rest[i], b.rest[i])
	}
	return s
}

func (b *utopiaBackend) RestoreState(state any) {
	if state == nil {
		return
	}
	s := state.(*utopiaSnapshot)
	b.claimed = s.claimed
	for i := range s.rest {
		copy(b.rest[i], s.rest[i])
	}
}
