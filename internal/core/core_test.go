package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/vm"
)

// testConfig shrinks memory so tests run fast.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MemoryPages = 4096
	cfg.OMSInitialFrames = 4
	return cfg
}

func newFW(t *testing.T) *Framework {
	t.Helper()
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func mustMap(t *testing.T, f *Framework, p *vm.Process, vpn arch.VPN, n int) {
	t.Helper()
	if err := f.VM.MapAnon(p, vpn, n); err != nil {
		t.Fatal(err)
	}
}

func TestPlainLoadStoreRoundTrip(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	mustMap(t, f, p, 0, 2)
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := f.Store(p.PID, 100, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data))
	if err := f.Load(p.PID, 100, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(data) {
		t.Fatalf("round trip = %q", buf)
	}
}

func TestLoadFaults(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	if err := f.Load(p.PID, 0, make([]byte, 1)); err == nil {
		t.Fatal("expected fault")
	}
	if err := f.Store(99, 0, []byte{1}); err == nil {
		t.Fatal("expected no-process error")
	}
}

func TestOverlayOnWriteCreatesOverlayNotCopy(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	f.Store(parent.PID, 0, []byte{1, 2, 3})
	child := f.Fork(parent, true)

	framesBefore := f.Mem.AllocatedPages()
	if err := f.Store(parent.PID, 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if f.Mem.AllocatedPages() != framesBefore {
		t.Fatal("overlay-on-write must not allocate a full frame")
	}
	if f.Engine.Stats.Get("core.overlaying_writes") != 1 {
		t.Fatalf("overlaying_writes = %d", f.Engine.Stats.Get("core.overlaying_writes"))
	}
	obits, bytes := f.OverlayInfo(parent.PID, 0)
	if obits.Count() != 1 || !obits.Has(0) {
		t.Fatalf("OBits = %s", obits)
	}
	if bytes != 256 {
		t.Fatalf("overlay segment = %d bytes, want 256", bytes)
	}

	// Parent sees the new value; child sees the original.
	var pb, cb [3]byte
	f.Load(parent.PID, 0, pb[:])
	f.Load(child.PID, 0, cb[:])
	if pb != [3]byte{9, 2, 3} {
		t.Fatalf("parent = %v", pb)
	}
	if cb != [3]byte{1, 2, 3} {
		t.Fatalf("child = %v", cb)
	}
}

func TestOverlayingWritePreservesRestOfLine(t *testing.T) {
	// The overlaying write copies the source line before the store lands:
	// untouched bytes of the same line must keep their pre-fork values.
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	line := make([]byte, arch.LineSize)
	for i := range line {
		line[i] = byte(i + 1)
	}
	f.Store(parent.PID, 0, line)
	f.Fork(parent, true)
	f.Store(parent.PID, 5, []byte{0xaa})

	got := make([]byte, arch.LineSize)
	f.Load(parent.PID, 0, got)
	for i := range got {
		want := byte(i + 1)
		if i == 5 {
			want = 0xaa
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestSimpleWriteAfterOverlaying(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	f.Fork(parent, true)
	f.Store(parent.PID, 0, []byte{1})
	f.Store(parent.PID, 1, []byte{2}) // same line → simple write
	if f.Engine.Stats.Get("core.overlaying_writes") != 1 {
		t.Fatal("second store should not re-overlay")
	}
	if f.Engine.Stats.Get("core.simple_overlay_writes") != 1 {
		t.Fatal("second store should be a simple overlay write")
	}
	var b [2]byte
	f.Load(parent.PID, 0, b[:])
	if b != [2]byte{1, 2} {
		t.Fatalf("loaded %v", b)
	}
}

func TestConventionalCOWStillWorks(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	f.Store(parent.PID, 64, []byte{7})
	child := f.Fork(parent, false)

	framesBefore := f.Mem.AllocatedPages()
	f.Store(parent.PID, 64, []byte{8})
	if f.Mem.AllocatedPages() != framesBefore+1 {
		t.Fatal("conventional COW must copy a full frame")
	}
	if f.Engine.Stats.Get("core.cow_page_copies") != 1 {
		t.Fatal("copy not counted")
	}
	var pb, cb [1]byte
	f.Load(parent.PID, 64, pb[:])
	f.Load(child.PID, 64, cb[:])
	if pb[0] != 8 || cb[0] != 7 {
		t.Fatalf("isolation: parent=%d child=%d", pb[0], cb[0])
	}
}

func TestOverlayGrowsAcrossSegmentSizes(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	base := make([]byte, arch.PageSize)
	for i := range base {
		base[i] = byte(i % 251)
	}
	f.Store(parent.PID, 0, base)
	f.Fork(parent, true)

	// Touch every line: overlay must migrate 256B → … → 4KB and keep data.
	for line := 0; line < arch.LinesPerPage; line++ {
		f.Store(parent.PID, arch.VirtAddr(line*arch.LineSize), []byte{byte(line)})
	}
	obits, bytes := f.OverlayInfo(parent.PID, 0)
	if !obits.Full() {
		t.Fatalf("OBits not full: %s", obits)
	}
	if bytes != arch.PageSize {
		t.Fatalf("segment bytes = %d, want 4096", bytes)
	}
	got := make([]byte, arch.PageSize)
	f.Load(parent.PID, 0, got)
	for i := range got {
		want := byte(i % 251)
		if i%arch.LineSize == 0 {
			want = byte(i / arch.LineSize)
		}
		if got[i] != want {
			t.Fatalf("byte %d = %d, want %d", i, got[i], want)
		}
	}
}

func TestSparseZeroPageOverlay(t *testing.T) {
	// §5.2: map pages to the zero page with overlays for non-zero lines.
	f := newFW(t)
	p := f.VM.NewProcess()
	f.VM.MapZero(p, 0, 4, true)

	// Reads of untouched pages are all zero and allocate nothing.
	buf := make([]byte, 128)
	f.Load(p.PID, 3*arch.PageSize, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("zero mapping returned non-zero")
		}
	}
	frames := f.Mem.AllocatedPages()
	f.Store(p.PID, 2*arch.PageSize+300, []byte{42})
	if f.Mem.AllocatedPages() != frames {
		t.Fatal("sparse write allocated a frame")
	}
	var b [1]byte
	f.Load(p.PID, 2*arch.PageSize+300, b[:])
	if b[0] != 42 {
		t.Fatalf("read back %d", b[0])
	}
	// Neighbouring bytes in the same line are zero (copied from zero page).
	f.Load(p.PID, 2*arch.PageSize+301, b[:])
	if b[0] != 0 {
		t.Fatal("neighbour byte dirty")
	}
}

func TestPromoteCopyAndCommit(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)
	f.Store(parent.PID, 0, []byte{1, 1, 1})
	child := f.Fork(parent, true)
	f.Store(parent.PID, 0, []byte{9})
	f.Store(parent.PID, 200, []byte{8})

	if err := f.Promote(parent, 0, CopyAndCommit); err != nil {
		t.Fatal(err)
	}
	obits, bytes := f.OverlayInfo(parent.PID, 0)
	if obits != 0 || bytes != 0 {
		t.Fatal("overlay state not cleared")
	}
	// Data preserved: overlay values on top of pre-fork values.
	var b [3]byte
	f.Load(parent.PID, 0, b[:])
	if b != [3]byte{9, 1, 1} {
		t.Fatalf("parent after promote = %v", b)
	}
	var c [1]byte
	f.Load(parent.PID, 200, c[:])
	if c[0] != 8 {
		t.Fatal("overlay line lost")
	}
	// Child untouched.
	f.Load(child.PID, 0, b[:])
	if b != [3]byte{1, 1, 1} {
		t.Fatalf("child = %v", b)
	}
	// Parent is now writable in place: further stores are plain.
	f.Store(parent.PID, 0, []byte{5})
	if f.Engine.Stats.Get("core.plain_writes") == 0 {
		t.Fatal("post-promote store not plain")
	}
}

func TestPromoteCommitAndDiscard(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	mustMap(t, f, p, 0, 1)
	f.Store(p.PID, 0, []byte{1})

	// Speculation-style: mark the private page COW+Overlay.
	pte := p.Table.Lookup(0)
	pte.COW = true
	pte.Writable = false
	pte.Overlay = true

	f.Store(p.PID, 0, []byte{2}) // buffered in overlay
	var b [1]byte
	f.Load(p.PID, 0, b[:])
	if b[0] != 2 {
		t.Fatal("overlay value not visible")
	}

	// Discard: revert to 1.
	if err := f.Promote(p, 0, Discard); err != nil {
		t.Fatal(err)
	}
	f.Load(p.PID, 0, b[:])
	if b[0] != 1 {
		t.Fatalf("after discard = %d, want 1", b[0])
	}

	// Again with commit: value persists onto the physical page.
	pte = p.Table.Lookup(0)
	pte.COW = true
	pte.Writable = false
	pte.Overlay = true
	f.Store(p.PID, 0, []byte{3})
	if err := f.Promote(p, 0, Commit); err != nil {
		t.Fatal(err)
	}
	f.Load(p.PID, 0, b[:])
	if b[0] != 3 {
		t.Fatalf("after commit = %d, want 3", b[0])
	}
	if _, bytes := f.OverlayInfo(p.PID, 0); bytes != 0 {
		t.Fatal("segment not freed")
	}
}

func TestPromoteErrors(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	if err := f.Promote(p, 0, Commit); err == nil {
		t.Fatal("promote of unmapped page must fail")
	}
	mustMap(t, f, p, 0, 1)
	if err := f.Promote(p, 0, Commit); err == nil {
		t.Fatal("commit with no overlay must fail")
	}
	if err := f.Promote(p, 0, Discard); err == nil {
		t.Fatal("discard with no overlay must fail")
	}
	// Commit onto a shared page is rejected.
	f.Fork(p, true)
	f.Store(p.PID, 0, []byte{1})
	if err := f.Promote(p, 0, Commit); err == nil {
		t.Fatal("commit onto shared page must fail")
	}
	// CopyAndCommit succeeds there.
	if err := f.Promote(p, 0, CopyAndCommit); err != nil {
		t.Fatal(err)
	}
}

func TestShadowMetadata(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	mustMap(t, f, p, 0, 1)
	pte := p.Table.Lookup(0)
	pte.Shadow = true

	f.Store(p.PID, 0, []byte{7}) // data write, plain
	var meta [4]byte
	if err := f.ShadowLoad(p.PID, 0, meta[:]); err != nil {
		t.Fatal(err)
	}
	if meta != [4]byte{} {
		t.Fatal("unwritten metadata must read zero")
	}
	if err := f.ShadowStore(p.PID, 0, []byte{0xff, 0xee}); err != nil {
		t.Fatal(err)
	}
	f.ShadowLoad(p.PID, 0, meta[:])
	if meta[0] != 0xff || meta[1] != 0xee || meta[2] != 0 {
		t.Fatalf("metadata = %v", meta)
	}
	// Data is unaffected by metadata writes and vice versa.
	var b [1]byte
	f.Load(p.PID, 0, b[:])
	if b[0] != 7 {
		t.Fatalf("data = %d, want 7", b[0])
	}
	f.Store(p.PID, 0, []byte{8})
	f.ShadowLoad(p.PID, 0, meta[:1])
	if meta[0] != 0xff {
		t.Fatal("data write clobbered metadata")
	}
}

func TestShadowRejectsNonShadowPages(t *testing.T) {
	f := newFW(t)
	p := f.VM.NewProcess()
	mustMap(t, f, p, 0, 1)
	if err := f.ShadowStore(p.PID, 0, []byte{1}); err == nil {
		t.Fatal("expected error on non-shadow page")
	}
	if err := f.ShadowLoad(p.PID, 0, make([]byte, 1)); err == nil {
		t.Fatal("expected error on non-shadow page")
	}
}

func TestStoreAcrossLineAndPageBoundaries(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 2)
	f.Fork(parent, true)
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	va := arch.VirtAddr(arch.PageSize - 100)
	if err := f.Store(parent.PID, va, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 200)
	f.Load(parent.PID, va, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d != %d", i, got[i], data[i])
		}
	}
	// Both pages have overlays now.
	o0, _ := f.OverlayInfo(parent.PID, 0)
	o1, _ := f.OverlayInfo(parent.PID, 1)
	if o0 == 0 || o1 == 0 {
		t.Fatal("expected overlays on both pages")
	}
}

func TestForkFlushesParentTLB(t *testing.T) {
	f := newFW(t)
	port := f.NewPort()
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 1)

	done := false
	port.Write(parent.PID, 0, sim.Bind(func(uint64) { done = true }, 0))
	f.Engine.Run()
	if !done {
		t.Fatal("write never completed")
	}
	e, ok := port.TLB.Peek(parent.PID, 0)
	if !ok || !e.Writable {
		t.Fatal("expected cached writable entry")
	}
	f.Fork(parent, true)
	if _, ok := port.TLB.Peek(parent.PID, 0); ok {
		t.Fatal("stale TLB entry survived fork")
	}
}

func TestForkCopiesParentOverlay(t *testing.T) {
	// §4.1: no two virtual pages share an overlay, so fork must copy the
	// parent's overlay lines into a per-child overlay — the child sees
	// the parent's fork-time contents, including overlaid lines.
	f := newFW(t)
	gen1 := f.VM.NewProcess()
	mustMap(t, f, gen1, 0, 1)
	f.Store(gen1.PID, 0, []byte{1})
	f.Fork(gen1, true)
	f.Store(gen1.PID, 0, []byte{2}) // now in gen1's overlay

	gen3 := f.Fork(gen1, true)
	obits, _ := f.OverlayInfo(gen3.PID, 0)
	if !obits.Has(0) {
		t.Fatal("child did not inherit the parent's overlay line")
	}
	var b [1]byte
	f.Load(gen3.PID, 0, b[:])
	if b[0] != 2 {
		t.Fatalf("child sees %d, want the parent's overlaid value 2", b[0])
	}
	// Divergence after the fork stays isolated in both directions.
	f.Store(gen1.PID, 0, []byte{3})
	f.Load(gen3.PID, 0, b[:])
	if b[0] != 2 {
		t.Fatal("parent's post-fork write leaked into child")
	}
	f.Store(gen3.PID, 0, []byte{4})
	f.Load(gen1.PID, 0, b[:])
	if b[0] != 3 {
		t.Fatal("child's write leaked into parent")
	}
}

func TestExitReleasesOverlays(t *testing.T) {
	f := newFW(t)
	parent := f.VM.NewProcess()
	mustMap(t, f, parent, 0, 2)
	child := f.Fork(parent, true)
	f.Store(child.PID, 0, []byte{1})
	f.Store(child.PID, arch.PageSize, []byte{2})
	if f.OMS.LiveSegments() == 0 {
		t.Fatal("expected live overlay segments")
	}
	f.Exit(child)
	if f.OMS.LiveSegments() != 0 {
		t.Fatalf("exit leaked %d overlay segments", f.OMS.LiveSegments())
	}
	// Parent still intact.
	var b [1]byte
	f.Load(parent.PID, 0, b[:])
	if b[0] != 0 {
		t.Fatal("parent corrupted by child exit")
	}
}
