package vm

import (
	"math/rand"
	"testing"

	"repro/internal/arch"
	"repro/internal/mem"
)

func newMgr(pages int) *Manager { return NewManager(mem.New(pages)) }

func TestPageTableMapLookupUnmap(t *testing.T) {
	pt := NewPageTable()
	if pt.Lookup(5) != nil {
		t.Fatal("lookup on empty table should return nil")
	}
	pt.Map(5, PTE{Present: true, PPN: 42, Writable: true})
	pte := pt.Lookup(5)
	if pte == nil || pte.PPN != 42 || !pte.Writable {
		t.Fatalf("lookup = %+v", pte)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d", pt.Mapped())
	}
	old, ok := pt.Unmap(5)
	if !ok || old.PPN != 42 {
		t.Fatal("unmap failed")
	}
	if pt.Lookup(5) != nil || pt.Mapped() != 0 {
		t.Fatal("entry survived unmap")
	}
}

func TestPageTableDoubleMapPanics(t *testing.T) {
	pt := NewPageTable()
	pt.Map(5, PTE{Present: true, PPN: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double map")
		}
	}()
	pt.Map(5, PTE{Present: true, PPN: 2})
}

func TestPageTableSparseVPNs(t *testing.T) {
	// VPNs spread across the full 36-bit VPN space must not collide.
	pt := NewPageTable()
	rng := rand.New(rand.NewSource(11))
	want := map[arch.VPN]arch.PPN{}
	for i := 0; i < 500; i++ {
		vpn := arch.VPN(rng.Int63n(1 << 36))
		if _, dup := want[vpn]; dup {
			continue
		}
		ppn := arch.PPN(i + 1)
		want[vpn] = ppn
		pt.Map(vpn, PTE{Present: true, PPN: ppn})
	}
	for vpn, ppn := range want {
		pte := pt.Lookup(vpn)
		if pte == nil || pte.PPN != ppn {
			t.Fatalf("vpn %#x: got %+v, want ppn %d", uint64(vpn), pte, ppn)
		}
	}
}

func TestPageTableRangeOrderAndCount(t *testing.T) {
	pt := NewPageTable()
	vpns := []arch.VPN{100, 5, 1 << 30, 7, 600}
	for i, v := range vpns {
		pt.Map(v, PTE{Present: true, PPN: arch.PPN(i + 1)})
	}
	var got []arch.VPN
	pt.Range(func(vpn arch.VPN, pte PTE) bool {
		got = append(got, vpn)
		return true
	})
	if len(got) != len(vpns) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(vpns))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Range out of order: %v", got)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	pt := NewPageTable()
	for i := 0; i < 10; i++ {
		pt.Map(arch.VPN(i), PTE{Present: true, PPN: arch.PPN(i + 1)})
	}
	n := 0
	pt.Range(func(arch.VPN, PTE) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestMapAnonAllocatesDistinctFrames(t *testing.T) {
	mgr := newMgr(32)
	p := mgr.NewProcess()
	if err := mgr.MapAnon(p, 10, 4); err != nil {
		t.Fatal(err)
	}
	seen := map[arch.PPN]bool{}
	for i := arch.VPN(10); i < 14; i++ {
		pte := p.Table.Lookup(i)
		if pte == nil || !pte.Writable {
			t.Fatalf("vpn %d not mapped writable", i)
		}
		if seen[pte.PPN] {
			t.Fatal("duplicate frame")
		}
		seen[pte.PPN] = true
		if mgr.Refs(pte.PPN) != 1 {
			t.Fatalf("refs = %d, want 1", mgr.Refs(pte.PPN))
		}
	}
}

func TestMapZero(t *testing.T) {
	mgr := newMgr(8)
	p := mgr.NewProcess()
	mgr.MapZero(p, 0, 3, true)
	for i := arch.VPN(0); i < 3; i++ {
		pte := p.Table.Lookup(i)
		if pte.PPN != mem.ZeroPPN || pte.Writable || !pte.COW || !pte.Overlay {
			t.Fatalf("zero mapping wrong: %+v", pte)
		}
	}
	if mgr.Refs(mem.ZeroPPN) != 3 {
		t.Fatalf("zero refs = %d", mgr.Refs(mem.ZeroPPN))
	}
}

func TestForkSharesAndMarksCOW(t *testing.T) {
	mgr := newMgr(32)
	parent := mgr.NewProcess()
	mgr.MapAnon(parent, 0, 2)
	mgr.WriteBytes(parent, 0, []byte{1, 2, 3})
	before := mgr.Mem.AllocatedPages()
	child := mgr.Fork(parent, false)
	if mgr.Mem.AllocatedPages() != before {
		t.Fatal("fork must not allocate frames")
	}
	for _, p := range []*Process{parent, child} {
		pte := p.Table.Lookup(0)
		if pte.Writable || !pte.COW {
			t.Fatalf("pid %d pte not COW: %+v", p.PID, pte)
		}
	}
	pp := parent.Table.Lookup(0)
	cp := child.Table.Lookup(0)
	if pp.PPN != cp.PPN {
		t.Fatal("fork must share frames")
	}
	if mgr.Refs(pp.PPN) != 2 {
		t.Fatalf("refs = %d, want 2", mgr.Refs(pp.PPN))
	}
	// Child reads parent's data.
	buf := make([]byte, 3)
	mgr.ReadBytes(child, 0, buf)
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
		t.Fatalf("child read %v", buf)
	}
}

func TestForkOverlayModeSetsOverlayBit(t *testing.T) {
	mgr := newMgr(32)
	parent := mgr.NewProcess()
	mgr.MapAnon(parent, 0, 1)
	child := mgr.Fork(parent, true)
	if !parent.Table.Lookup(0).Overlay || !child.Table.Lookup(0).Overlay {
		t.Fatal("overlay mode not recorded in PTEs")
	}
}

func TestCOWIsolationAfterWrite(t *testing.T) {
	mgr := newMgr(32)
	parent := mgr.NewProcess()
	mgr.MapAnon(parent, 0, 1)
	mgr.WriteBytes(parent, 100, []byte{7})
	child := mgr.Fork(parent, false)

	// Parent writes → its page is copied; child still sees old data.
	if err := mgr.WriteBytes(parent, 100, []byte{9}); err != nil {
		t.Fatal(err)
	}
	var pb, cb [1]byte
	mgr.ReadBytes(parent, 100, pb[:])
	mgr.ReadBytes(child, 100, cb[:])
	if pb[0] != 9 || cb[0] != 7 {
		t.Fatalf("isolation broken: parent %d child %d", pb[0], cb[0])
	}
	// Untouched bytes were copied too.
	mgr.WriteBytes(parent, 50, []byte{1})
	mgr.ReadBytes(child, 50, cb[:])
	if cb[0] != 0 {
		t.Fatal("child dirtied")
	}
}

func TestBreakCOWLastSharerSkipsCopy(t *testing.T) {
	mgr := newMgr(32)
	parent := mgr.NewProcess()
	mgr.MapAnon(parent, 0, 1)
	child := mgr.Fork(parent, false)
	oldPPN := parent.Table.Lookup(0).PPN

	// Parent breaks first → copy.
	ppn1, copied, err := mgr.BreakCOW(parent, 0)
	if err != nil || !copied || ppn1 == oldPPN {
		t.Fatalf("first break: ppn=%d copied=%v err=%v", ppn1, copied, err)
	}
	// Child is now sole sharer → no copy.
	ppn2, copied, err := mgr.BreakCOW(child, 0)
	if err != nil || copied || ppn2 != oldPPN {
		t.Fatalf("second break: ppn=%d copied=%v err=%v", ppn2, copied, err)
	}
}

func TestBreakCOWErrors(t *testing.T) {
	mgr := newMgr(8)
	p := mgr.NewProcess()
	if _, _, err := mgr.BreakCOW(p, 0); err == nil {
		t.Fatal("expected error on unmapped page")
	}
	mgr.MapAnon(p, 0, 1)
	if _, _, err := mgr.BreakCOW(p, 0); err == nil {
		t.Fatal("expected error on non-COW page")
	}
}

func TestExitReleasesFrames(t *testing.T) {
	mgr := newMgr(32)
	parent := mgr.NewProcess()
	mgr.MapAnon(parent, 0, 3)
	child := mgr.Fork(parent, false)
	base := mgr.Mem.AllocatedPages()
	mgr.Exit(child)
	if mgr.Mem.AllocatedPages() != base {
		t.Fatal("exit of sharing child must not free shared frames")
	}
	mgr.Exit(parent)
	if mgr.Mem.AllocatedPages() != 1 { // zero page only
		t.Fatalf("allocated after both exits = %d, want 1", mgr.Mem.AllocatedPages())
	}
}

func TestWriteToReadOnlyNonCOWFails(t *testing.T) {
	mgr := newMgr(8)
	p := mgr.NewProcess()
	ppn, _ := mgr.Mem.Alloc()
	p.Table.Map(0, PTE{Present: true, Writable: false, PPN: ppn})
	mgr.refs[ppn] = 1
	if err := mgr.WriteBytes(p, 0, []byte{1}); err == nil {
		t.Fatal("expected protection fault")
	}
}

func TestReadWriteAcrossPageBoundary(t *testing.T) {
	mgr := newMgr(32)
	p := mgr.NewProcess()
	mgr.MapAnon(p, 0, 2)
	data := []byte{1, 2, 3, 4}
	va := arch.VirtAddr(arch.PageSize - 2)
	if err := mgr.WriteBytes(p, va, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	mgr.ReadBytes(p, va, buf)
	for i := range data {
		if buf[i] != data[i] {
			t.Fatalf("cross-page round trip: %v", buf)
		}
	}
}

func TestForkOfForkChains(t *testing.T) {
	mgr := newMgr(64)
	p1 := mgr.NewProcess()
	mgr.MapAnon(p1, 0, 1)
	mgr.WriteBytes(p1, 0, []byte{5})
	p2 := mgr.Fork(p1, false)
	p3 := mgr.Fork(p2, false)
	ppn := p1.Table.Lookup(0).PPN
	if mgr.Refs(ppn) != 3 {
		t.Fatalf("refs = %d, want 3", mgr.Refs(ppn))
	}
	mgr.WriteBytes(p2, 0, []byte{6})
	var b [1]byte
	mgr.ReadBytes(p1, 0, b[:])
	if b[0] != 5 {
		t.Fatal("p1 corrupted")
	}
	mgr.ReadBytes(p3, 0, b[:])
	if b[0] != 5 {
		t.Fatal("p3 corrupted")
	}
	mgr.ReadBytes(p2, 0, b[:])
	if b[0] != 6 {
		t.Fatal("p2 lost its write")
	}
}
