package exp

// This file implements the `omsstress` experiment: a multi-tenant churn
// workload against the Overlay Memory Store's buffer-manager mode. Each
// tenant drives its own store through a deterministic seeded mix of
// segment allocs, frees, line inserts and migrations, with the frame
// capacity set well below the working set so the cooling queue and the
// beyond-DRAM spill tier carry the overflow. Every read is verified
// against the deterministic byte pattern the tenant wrote, so a segment
// that round-trips through the spill tier with corrupted data or a
// broken slot mapping fails the run rather than skewing a counter.
// Tenant streams are independent and seeded from the tenant index, so
// results are bit-identical at any harness worker count.

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro/internal/arch"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/oms"
	"repro/internal/sim"
)

// OMSStressParams sizes the churn workload.
type OMSStressParams struct {
	Tenants  int  `json:"tenants"`
	Ops      int  `json:"ops"`      // operations per tenant
	Segments int  `json:"segments"` // overlay slots per tenant (working-set bound)
	Capacity int  `json:"capacity"` // frame budget per tenant store; 0 = unlimited
	Spill    bool `json:"spill"`    // evict cold segments to the spill tier
}

// DefaultOMSStressParams is the CLI default: four tenants whose ~192
// segment working sets far exceed the 32-frame budget, forcing steady
// eviction and refill traffic.
func DefaultOMSStressParams() OMSStressParams {
	return OMSStressParams{Tenants: 4, Ops: 24000, Segments: 192, Capacity: 32, Spill: true}
}

// OMSStressResult is one tenant's deterministic outcome: the store's
// counter deltas plus the final occupancy. All fields are simulated
// quantities and compare exactly across machines and worker counts.
type OMSStressResult struct {
	Tenant          int    `json:"tenant"`
	Allocs          uint64 `json:"segment_allocs"`
	Frees           uint64 `json:"segment_frees"`
	Splits          uint64 `json:"segment_splits"`
	Coalesces       uint64 `json:"segment_coalesces"`
	Migrations      uint64 `json:"migrations"`
	Evictions       uint64 `json:"evictions"`
	Spills          uint64 `json:"spills"`
	Refills         uint64 `json:"refills"`
	SecondChances   uint64 `json:"second_chances"`
	Overruns        uint64 `json:"capacity_overruns"`
	PenaltyCycles   uint64 `json:"spill_penalty_cycles"`
	LineChecks      uint64 `json:"line_checks"` // pattern-verified line reads
	FramesOwned     int    `json:"frames_owned"`
	LiveSegments    int    `json:"live_segments"`
	SpilledSegments int    `json:"spilled_segments"`
	ResidentBytes   int    `json:"resident_bytes"`
	SpilledBytes    int    `json:"spilled_bytes"`
}

// stressTenant is one tenant's store plus the reference state the churn
// loop tracks: the current (possibly cold) handle, class and written
// lines per overlay slot. The evict hook rewrites refs in place when
// the store spills a segment.
type stressTenant struct {
	st    *oms.Store
	stats *sim.Stats

	refs    []arch.PhysAddr
	classes []int
	lines   []arch.OBitVector
}

// stressPattern is the deterministic byte each tenant writes at (slot,
// line, offset); reads verify against it after any number of spill
// round trips.
func stressPattern(tenant, slot, line, i int) byte {
	return byte(tenant*97 + slot*131 + line*7 + i)
}

func newStressTenant(tenant int, p OMSStressParams) (*stressTenant, error) {
	// The working set is at most Segments top-class frames; capacity mode
	// bounds residency, unlimited mode needs the full span plus growth
	// slack for the buddy allocator's doubling.
	pages := 4 * p.Segments
	if pages < 256 {
		pages = 256
	}
	m := mem.New(pages)
	stats := &sim.Stats{}
	st, err := oms.New(m, stats, 4)
	if err != nil {
		return nil, err
	}
	t := &stressTenant{
		st:      st,
		stats:   stats,
		refs:    make([]arch.PhysAddr, p.Segments),
		classes: make([]int, p.Segments),
		lines:   make([]arch.OBitVector, p.Segments),
	}
	// Owner tokens are slot+1 (0 means unowned); on eviction the store
	// hands back the cold reference and the tenant unswizzles its handle.
	st.SetEvictHook(func(owner uint64, cold arch.PhysAddr) {
		t.refs[owner-1] = cold
	})
	if p.Capacity > 0 {
		st.SetCapacity(p.Capacity, p.Spill)
	}
	return t, nil
}

// churn runs the tenant's deterministic op stream. Verification errors
// abort the run; they indicate spill-tier data corruption, not workload
// variance.
func (t *stressTenant) churn(tenant int, p OMSStressParams) error {
	s := t.st
	rng := rand.New(rand.NewSource(int64(tenant) + 1))
	var buf [arch.LineSize]byte
	for op := 0; op < p.Ops; op++ {
		slot := rng.Intn(p.Segments)
		switch {
		case t.refs[slot] == 0:
			// Empty slot: allocate a small segment and write its first line.
			class := rng.Intn(oms.NumClasses - 1)
			line := rng.Intn(arch.LinesPerPage)
			base, err := s.AllocSegment(class)
			if err != nil {
				return err
			}
			s.SetOwner(base, uint64(slot)+1)
			t.refs[slot] = base
			t.classes[slot] = class
			t.lines[slot] = 0
			if err := t.writeLine(slot, line, buf[:], tenant); err != nil {
				return err
			}

		case rng.Intn(10) < 3:
			// Free: cold references release their spill record directly.
			s.FreeSegment(t.refs[slot])
			t.refs[slot] = 0
			t.lines[slot] = 0

		default:
			// Touch: resolve (refilling if spilled), verify a line already
			// written, then insert another — migrating up a class when the
			// segment is full.
			line := rng.Intn(arch.LinesPerPage)
			pick := -1
			if present := t.lines[slot].Lines(); len(present) > 0 {
				pick = present[rng.Intn(len(present))]
			}
			base, _, err := s.Resolve(t.refs[slot])
			if err != nil {
				return err
			}
			t.refs[slot] = base
			if pick >= 0 {
				if err := t.verifyLine(slot, pick, buf[:], tenant); err != nil {
					return err
				}
			}
			if !t.lines[slot].Has(line) {
				if err := t.writeLine(slot, line, buf[:], tenant); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// writeLine inserts `line` into the slot's segment (migrating to the
// next class when full) and writes the tenant's pattern bytes.
func (t *stressTenant) writeLine(slot, line int, buf []byte, tenant int) error {
	s := t.st
	addr, full := s.InsertLine(t.refs[slot], line)
	if full {
		if t.classes[slot] >= oms.NumClasses-1 {
			return nil // 4 KB segments are direct-mapped and never full
		}
		newBase, err := s.Migrate(t.refs[slot], t.lines[slot])
		if err != nil {
			return err
		}
		t.refs[slot] = newBase
		t.classes[slot]++
		if addr, full = s.InsertLine(newBase, line); full {
			return fmt.Errorf("segment full after migration (slot %d class %d)", slot, t.classes[slot])
		}
	}
	for i := range buf {
		buf[i] = stressPattern(tenant, slot, line, i)
	}
	s.WriteLineData(addr, buf)
	t.lines[slot] = t.lines[slot].Set(line)
	return nil
}

// verifyLine reads a previously written line back and checks every byte.
func (t *stressTenant) verifyLine(slot, line int, buf []byte, tenant int) error {
	addr, ok := t.st.LocateLine(t.refs[slot], line)
	if !ok {
		return fmt.Errorf("slot %d line %d lost its segment slot", slot, line)
	}
	t.st.ReadLineData(addr, buf)
	for i := range buf {
		if want := stressPattern(tenant, slot, line, i); buf[i] != want {
			return fmt.Errorf("slot %d line %d byte %d: got %#x want %#x (data corrupted across spill)",
				slot, line, i, buf[i], want)
		}
	}
	t.stats.Inc("omsstress.line_checks")
	return nil
}

// result reduces the tenant's registry and final occupancy to the
// deterministic row, checking the conservation invariant on the way:
// resident plus spilled bytes must equal the bytes of every live
// segment the reference state still holds.
func (t *stressTenant) result(tenant int) (OMSStressResult, error) {
	s := t.st
	live := 0
	for slot, ref := range t.refs {
		if ref != 0 {
			live += oms.ClassBytes(t.classes[slot])
		}
	}
	if got := s.BytesInUse(); got != live {
		return OMSStressResult{}, fmt.Errorf("omsstress tenant %d: store holds %d bytes, reference state %d", tenant, got, live)
	}
	if s.ResidentBytes()+s.SpilledBytes() != s.BytesInUse() {
		return OMSStressResult{}, fmt.Errorf("omsstress tenant %d: resident %d + spilled %d != in use %d",
			tenant, s.ResidentBytes(), s.SpilledBytes(), s.BytesInUse())
	}
	return OMSStressResult{
		Tenant:          tenant,
		Allocs:          t.stats.Get("oms.segment_allocs"),
		Frees:           t.stats.Get("oms.segment_frees"),
		Splits:          t.stats.Get("oms.segment_splits"),
		Coalesces:       t.stats.Get("oms.segment_coalesces"),
		Migrations:      t.stats.Get("oms.migrations"),
		Evictions:       t.stats.Get("oms.evictions"),
		Spills:          t.stats.Get("oms.spills"),
		Refills:         t.stats.Get("oms.refills"),
		SecondChances:   t.stats.Get("oms.second_chances"),
		Overruns:        t.stats.Get("oms.capacity_overruns"),
		PenaltyCycles:   t.stats.Get("oms.spill_penalty_cycles"),
		LineChecks:      t.stats.Get("omsstress.line_checks"),
		FramesOwned:     s.FramesOwned(),
		LiveSegments:    s.LiveSegments(),
		SpilledSegments: s.SpilledSegments(),
		ResidentBytes:   s.ResidentBytes(),
		SpilledBytes:    s.SpilledBytes(),
	}, nil
}

// RunOMSStressPool runs every tenant's churn as one harness job and
// returns the per-tenant rows plus the merged stats registry.
func RunOMSStressPool(ctx context.Context, pool Pool, p OMSStressParams) ([]OMSStressResult, *sim.Stats, error) {
	if p.Tenants <= 0 || p.Ops <= 0 || p.Segments <= 0 {
		return nil, nil, fmt.Errorf("omsstress: tenants, ops and segments must be positive")
	}
	tenants := make([]*stressTenant, p.Tenants)
	for i := range tenants {
		t, err := newStressTenant(i, p)
		if err != nil {
			return nil, nil, fmt.Errorf("omsstress tenant %d: %w", i, err)
		}
		tenants[i] = t
	}
	idx := make([]int, p.Tenants)
	for i := range idx {
		idx[i] = i
	}
	results, err := harness.Map(ctx, pool.opts("omsstress"), idx,
		func(_ context.Context, tenant int, _ int) (OMSStressResult, error) {
			t := tenants[tenant]
			if err := t.churn(tenant, p); err != nil {
				return OMSStressResult{}, fmt.Errorf("omsstress tenant %d: %w", tenant, err)
			}
			return t.result(tenant)
		})
	if err != nil {
		return nil, nil, err
	}
	merged := &sim.Stats{}
	for _, t := range tenants {
		merged.Merge(t.stats)
	}
	return results, merged, nil
}

// PrintOMSStress renders the per-tenant table and totals.
func PrintOMSStress(w io.Writer, p OMSStressParams, results []OMSStressResult) {
	capacity := "unlimited"
	if p.Capacity > 0 {
		capacity = fmt.Sprintf("%d frames", p.Capacity)
		if p.Spill {
			capacity += " + spill tier"
		}
	}
	fmt.Fprintf(w, "OMS buffer-manager stress: %d tenants x %d ops over %d segments (%s)\n",
		p.Tenants, p.Ops, p.Segments, capacity)
	fmt.Fprintf(w, "%-7s %8s %8s %8s %8s %8s %8s %10s %12s %12s\n",
		"tenant", "allocs", "migr", "evict", "spills", "refills", "2nd-ch", "checks", "resident", "spilled")
	var tot OMSStressResult
	for _, r := range results {
		fmt.Fprintf(w, "%-7d %8d %8d %8d %8d %8d %8d %10d %10.1fKB %10.1fKB\n",
			r.Tenant, r.Allocs, r.Migrations, r.Evictions, r.Spills, r.Refills,
			r.SecondChances, r.LineChecks, float64(r.ResidentBytes)/1024, float64(r.SpilledBytes)/1024)
		tot.Allocs += r.Allocs
		tot.Migrations += r.Migrations
		tot.Evictions += r.Evictions
		tot.Spills += r.Spills
		tot.Refills += r.Refills
		tot.SecondChances += r.SecondChances
		tot.LineChecks += r.LineChecks
		tot.PenaltyCycles += r.PenaltyCycles
		tot.ResidentBytes += r.ResidentBytes
		tot.SpilledBytes += r.SpilledBytes
	}
	fmt.Fprintf(w, "%-7s %8d %8d %8d %8d %8d %8d %10d %10.1fKB %10.1fKB\n",
		"total", tot.Allocs, tot.Migrations, tot.Evictions, tot.Spills, tot.Refills,
		tot.SecondChances, tot.LineChecks, float64(tot.ResidentBytes)/1024, float64(tot.SpilledBytes)/1024)
	fmt.Fprintf(w, "spill penalty: %d modeled cycles across all tenants; every line read verified against its write pattern\n",
		tot.PenaltyCycles)
}
