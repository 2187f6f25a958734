package omt

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
)

func opnOf(pid arch.PID, vpn arch.VPN) arch.OPN { return arch.OverlayPage(pid, vpn) }

func TestTableGetAbsentIsZero(t *testing.T) {
	tbl := NewTable()
	if !tbl.Get(opnOf(1, 1)).Empty() {
		t.Fatal("absent entry not empty")
	}
}

func TestTableRefPersists(t *testing.T) {
	tbl := NewTable()
	opn := opnOf(1, 10)
	e := tbl.Ref(opn)
	e.OBits = e.OBits.Set(5)
	e.SegBase = 0x1000
	got := tbl.Get(opn)
	if !got.OBits.Has(5) || got.SegBase != 0x1000 {
		t.Fatalf("entry lost: %+v", got)
	}
}

func TestTableDistinctOPNs(t *testing.T) {
	tbl := NewTable()
	for pid := arch.PID(0); pid < 4; pid++ {
		for vpn := arch.VPN(0); vpn < 64; vpn++ {
			tbl.Ref(opnOf(pid, vpn)).SegBase = arch.PhysAddr(uint64(pid)<<32 | uint64(vpn))
		}
	}
	for pid := arch.PID(0); pid < 4; pid++ {
		for vpn := arch.VPN(0); vpn < 64; vpn++ {
			want := arch.PhysAddr(uint64(pid)<<32 | uint64(vpn))
			if got := tbl.Get(opnOf(pid, vpn)).SegBase; got != want {
				t.Fatalf("pid=%d vpn=%d: SegBase=%#x, want %#x", pid, vpn, uint64(got), uint64(want))
			}
		}
	}
}

func TestTableDelete(t *testing.T) {
	tbl := NewTable()
	opn := opnOf(2, 20)
	tbl.Ref(opn).OBits = 0xff
	tbl.Delete(opn)
	if !tbl.Get(opn).Empty() {
		t.Fatal("entry survived delete")
	}
	tbl.Delete(opnOf(3, 3)) // deleting absent entry is a no-op
}

func TestCacheHitMissLatency(t *testing.T) {
	tbl := NewTable()
	var st sim.Stats
	c := NewCache(DefaultCacheConfig(), tbl, &st)
	cfg := DefaultCacheConfig()
	opn := opnOf(1, 1)

	_, lat := c.Lookup(opn)
	if lat != cfg.MissLatency {
		t.Fatalf("first lookup latency = %d, want %d", lat, cfg.MissLatency)
	}
	_, lat = c.Lookup(opn)
	if lat != cfg.HitLatency {
		t.Fatalf("second lookup latency = %d, want %d", lat, cfg.HitLatency)
	}
	if st.Get("omt.cache_hits") != 1 || st.Get("omt.cache_misses") != 1 {
		t.Fatalf("stats: %v", st.Snapshot())
	}
}

func TestCacheReturnsAuthoritativePointer(t *testing.T) {
	tbl := NewTable()
	var st sim.Stats
	c := NewCache(DefaultCacheConfig(), tbl, &st)
	opn := opnOf(1, 7)
	e, _ := c.Lookup(opn)
	e.OBits = e.OBits.Set(9)
	// Direct table access must observe the update (coherence by sharing).
	if !tbl.Get(opn).OBits.Has(9) {
		t.Fatal("cache and table diverged")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	tbl := NewTable()
	var st sim.Stats
	cfg := CacheConfig{Entries: 4, HitLatency: 5, MissLatency: 1000}
	c := NewCache(cfg, tbl, &st)
	for i := 0; i < 4; i++ {
		c.Lookup(opnOf(1, arch.VPN(i)))
	}
	c.Lookup(opnOf(1, 0))            // refresh opn 0
	c.Lookup(opnOf(1, arch.VPN(10))) // evicts opn 1 (LRU)
	if !c.Contains(opnOf(1, 0)) {
		t.Fatal("recently used entry evicted")
	}
	if c.Contains(opnOf(1, 1)) {
		t.Fatal("LRU entry not evicted")
	}
	if st.Get("omt.cache_evictions") != 1 {
		t.Fatalf("evictions = %d", st.Get("omt.cache_evictions"))
	}
}

func TestCacheInvalidate(t *testing.T) {
	tbl := NewTable()
	var st sim.Stats
	c := NewCache(DefaultCacheConfig(), tbl, &st)
	opn := opnOf(1, 1)
	c.Lookup(opn)
	c.Invalidate(opn)
	if c.Contains(opn) {
		t.Fatal("entry survived invalidate")
	}
	_, lat := c.Lookup(opn)
	if lat != DefaultCacheConfig().MissLatency {
		t.Fatal("invalidated entry hit")
	}
}

func TestEntryEmpty(t *testing.T) {
	if !(Entry{}).Empty() {
		t.Fatal("zero entry should be empty")
	}
	if (Entry{OBits: 1}).Empty() || (Entry{SegBase: 1}).Empty() {
		t.Fatal("non-zero entry reported empty")
	}
}
