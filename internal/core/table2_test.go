package core

import (
	"strings"
	"testing"
)

func TestDescribeCoversTable2(t *testing.T) {
	var sb strings.Builder
	Describe(&sb, DefaultConfig())
	out := sb.String()
	for _, want := range []string{
		"2.67 GHz", "64 entry instruction window",
		"64-entry 4-way associative L1 (1 cycle)", "1024-entry L2 (10 cycles)", "TLB miss = 1000 cycles",
		"64KB, 4-way", "512KB, 8-way", "2MB, 16-way", "DRRIP",
		"Stream prefetcher", "degree = 4", "distance = 24",
		"FR-FCFS drain when full", "64-entry write buffer", "64-entry OMT cache", "miss latency = 1000 cycles",
		"DDR3-1066", "8 banks", "8KB row buffer",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q", want)
		}
	}
}

func TestDefaultMatchesPaperGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Cache.L1.Size != 64<<10 || cfg.Cache.L2.Size != 512<<10 || cfg.Cache.L3.Size != 2<<20 {
		t.Fatal("cache sizes diverge from Table 2")
	}
	if cfg.TLB.L1Entries != 64 || cfg.TLB.L2Entries != 1024 || cfg.TLB.WalkLatency != 1000 {
		t.Fatal("TLB geometry diverges from Table 2")
	}
	if cfg.DRAM.Banks != 8 || cfg.DRAM.RowBytes != 8192 || cfg.DRAM.WriteBufCap != 64 {
		t.Fatal("DRAM geometry diverges from Table 2")
	}
	if cfg.OMTCache.Entries != 64 || cfg.OMTCache.MissLatency != 1000 {
		t.Fatal("OMT cache diverges from Table 2")
	}
	if cfg.Prefetch.Streams != 16 || cfg.Prefetch.Degree != 4 || cfg.Prefetch.Distance != 24 {
		t.Fatal("prefetcher diverges from Table 2")
	}
}

func TestHardwareCostMatchesPaper(t *testing.T) {
	// §4.5: 4 KB OMT cache + 8.5 KB TLB extension + 82 KB wider cache
	// tags = 94.5 KB overall.
	c := Cost(DefaultConfig())
	if c.OMTCacheBytes != 4096 {
		t.Errorf("OMT cache = %d B, want 4096", c.OMTCacheBytes)
	}
	if c.TLBExtraBytes != (64+1024)*8 { // 8.5 KB with the paper's rounding
		t.Errorf("TLB extension = %d B, want 8704", c.TLBExtraBytes)
	}
	if c.TagExtraBytes != 82<<10 {
		t.Errorf("tag extension = %d B, want 82 KB", c.TagExtraBytes)
	}
	total := float64(c.OverheadsTotal) / 1024
	if total < 92 || total > 95 {
		t.Errorf("total = %.1f KB, paper says 94.5 KB", total)
	}
}
