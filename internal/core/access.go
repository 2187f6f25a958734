package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/oms"
	"repro/internal/omt"
	"repro/internal/sim"
	"repro/internal/vm"
)

// This file implements the framework's functional access semantics
// (Figure 2): a cache line present in a page's overlay is accessed from
// the overlay; every other line is accessed from the regular physical
// page. The structural helpers here are shared with the timed path in
// timed.go, so timed and functional accesses observe identical state.

// lineLoc describes where one cache line's bytes live.
type lineLoc struct {
	cacheAddr arch.PhysAddr // address as tagged in the processor caches
	ppn       arch.PPN      // main-memory frame holding the bytes
	off       uint64        // byte offset of the line within that frame
	overlay   bool
}

func physLineLoc(ppn arch.PPN, line int) lineLoc {
	off := uint64(line) << arch.LineShift
	return lineLoc{cacheAddr: arch.PhysAddrOf(ppn, off), ppn: ppn, off: off}
}

func (f *Framework) overlayLineLoc(opn arch.OPN, entry *omt.Entry, line int) (lineLoc, error) {
	slot, ok := f.OMS.LocateLine(entry.SegBase, line)
	if !ok {
		return lineLoc{}, fmt.Errorf("core: overlay line %d of opn %#x has no slot", line, uint64(opn))
	}
	return lineLoc{
		cacheAddr: opn.LineAddr(line),
		ppn:       arch.PPN(slot.Page()),
		off:       uint64(slot) & arch.PageMask,
		overlay:   true,
	}, nil
}

// writeKind classifies what a store to a line required (§4.3).
type writeKind int

const (
	// writePlain hits a writable page with no overlay involvement.
	writePlain writeKind = iota
	// writeSimpleOverlay updates a line already in the overlay (§4.3.2).
	writeSimpleOverlay
	// writeOverlaying remaps the line into the overlay (§4.3.3).
	writeOverlaying
	// writeCOWCopy is the conventional copy-on-write resolution: full page
	// copy plus remap plus TLB shootdown (§2.2).
	writeCOWCopy
	// writeCOWReuse is a conventional COW fault where this process was the
	// last sharer, so only permissions change.
	writeCOWReuse
	// writeVBIRemap is the Virtual Block Interface's COW resolution: the
	// controller's translation layer remaps the block to a fresh frame and
	// copies it in the background — no OS trap, no shootdown, and no cache
	// retag (tags are virtual).
	writeVBIRemap
)

// writeResolution reports where a store landed and what it cost. The
// timed path issues the store at loc.cacheAddr (a virtual tag under
// vbi).
type writeResolution struct {
	kind writeKind
	loc  lineLoc
	// srcCacheAddr is set for writeOverlaying (the regular physical line
	// the data was remapped from), writeCOWCopy (line 0 of the source
	// page; the timed path reads all 64 lines of that page) and
	// writeVBIRemap (the base of the frame the block left, which is
	// loc.ppn's own frame on a last-sharer reuse).
	srcCacheAddr arch.PhysAddr
}

// overlayInsert adds `line` to the page's overlay: it allocates or grows
// the Overlay Memory Store segment, optionally initialises the slot from
// the regular physical page, sets the OBitVector bit in the OMT, and
// broadcasts the single-line TLB update. Idempotent for present lines.
func (f *Framework) overlayInsert(pid arch.PID, vpn arch.VPN, entry *omt.Entry, line int, initFrom *arch.PPN) (lineLoc, error) {
	opn := arch.OverlayPage(pid, vpn)
	if entry.OBits.Has(line) {
		return f.overlayLineLoc(opn, entry, line)
	}
	if entry.SegBase == 0 {
		if tr := f.Engine.Trace; tr != nil {
			tr.Emit(f.Engine.Now(), "overlay", "create",
				sim.TraceArg{Key: "pid", Val: uint64(pid)},
				sim.TraceArg{Key: "vpn", Val: uint64(vpn)})
		}
		base, err := f.OMS.AllocSegment(oms.ClassFor(1))
		if err != nil {
			return lineLoc{}, fmt.Errorf("core: overlay alloc: %w", err)
		}
		entry.SegBase = base
	}
	slot, full := f.OMS.InsertLine(entry.SegBase, line)
	if full {
		newBase, err := f.OMS.Migrate(entry.SegBase, entry.OBits)
		if err != nil {
			return lineLoc{}, fmt.Errorf("core: overlay migrate: %w", err)
		}
		entry.SegBase = newBase
		slot, full = f.OMS.InsertLine(entry.SegBase, line)
		if full {
			return lineLoc{}, fmt.Errorf("core: segment still full after migration")
		}
	}
	if initFrom != nil {
		var buf [arch.LineSize]byte
		f.Mem.ReadLine(*initFrom, line, buf[:])
		f.OMS.WriteLineData(slot, buf[:])
	}
	entry.OBits = entry.OBits.Set(line)
	f.broadcastLineUpdate(pid, vpn, line, true)
	return lineLoc{
		cacheAddr: opn.LineAddr(line),
		ppn:       arch.PPN(slot.Page()),
		off:       uint64(slot) & arch.PageMask,
		overlay:   true,
	}, nil
}

// Load copies len(buf) bytes at (pid, va) into buf under overlay
// semantics. It is the functional (untimed) read path.
func (f *Framework) Load(pid arch.PID, va arch.VirtAddr, buf []byte) error {
	proc, ok := f.VM.Process(pid)
	if !ok {
		return fmt.Errorf("core: no process %d", pid)
	}
	for n := 0; n < len(buf); {
		a := va + arch.VirtAddr(n)
		loc, err := f.backend.ResolveRead(proc, a.Page(), a.Line())
		if err != nil {
			return err
		}
		span := int(arch.LineSize - a.LineOffset())
		if span > len(buf)-n {
			span = len(buf) - n
		}
		f.Mem.ReadSpan(loc.ppn, loc.off+a.LineOffset(), buf[n:n+span])
		n += span
	}
	return nil
}

// Store writes data at (pid, va) under overlay semantics, creating
// overlays or breaking COW exactly as the hardware/OS would. It is the
// functional (untimed) write path.
func (f *Framework) Store(pid arch.PID, va arch.VirtAddr, data []byte) error {
	proc, ok := f.VM.Process(pid)
	if !ok {
		return fmt.Errorf("core: no process %d", pid)
	}
	for n := 0; n < len(data); {
		a := va + arch.VirtAddr(n)
		res, err := f.backend.ResolveWrite(proc, a.Page(), a.Line())
		if err != nil {
			return err
		}
		span := int(arch.LineSize - a.LineOffset())
		if span > len(data)-n {
			span = len(data) - n
		}
		if res.loc.ppn == mem.ZeroPPN {
			return fmt.Errorf("core: write resolved to the zero page at %#x", uint64(a))
		}
		f.Mem.WriteSpan(res.loc.ppn, res.loc.off+a.LineOffset(), data[n:n+span])
		n += span
	}
	return nil
}

// Load64 and Store64 are word-sized conveniences used heavily by the
// sparse-matrix engine.
func (f *Framework) Load64(pid arch.PID, va arch.VirtAddr) (uint64, error) {
	var buf [8]byte
	if err := f.Load(pid, va, buf[:]); err != nil {
		return 0, err
	}
	var v uint64
	for i := uint(0); i < 8; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return v, nil
}

func (f *Framework) Store64(pid arch.PID, va arch.VirtAddr, v uint64) error {
	var buf [8]byte
	for i := uint(0); i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	return f.Store(pid, va, buf[:])
}

// Fork clones the process under the translation backend's sharing
// mechanism. For the overlay backend, overlayMode selects overlay-on-
// write (true) versus conventional copy-on-write (false) semantics;
// backends without overlays share every page copy-on-write and ignore
// the flag.
func (f *Framework) Fork(parent *vm.Process, overlayMode bool) *vm.Process {
	return f.backend.Fork(parent, overlayMode)
}

// Exit tears down a process: every page overlay is released, then the
// address space itself.
func (f *Framework) Exit(proc *vm.Process) {
	proc.Table.Range(func(vpn arch.VPN, _ vm.PTE) bool {
		if !f.OMTTable.Get(arch.OverlayPage(proc.PID, vpn)).Empty() {
			f.clearOverlay(proc.PID, vpn)
		}
		return true
	})
	f.VM.Exit(proc)
	for _, p := range f.ports {
		p.TLB.FlushPID(proc.PID)
	}
}

// OverlayInfo reports a page's overlay state: its OBitVector and the
// bytes of Overlay Memory Store backing it (0 if none).
func (f *Framework) OverlayInfo(pid arch.PID, vpn arch.VPN) (arch.OBitVector, int) {
	entry := f.OMTTable.Get(arch.OverlayPage(pid, vpn))
	bytes := 0
	if entry.SegBase != 0 {
		if class, ok := f.OMS.SegmentClass(entry.SegBase); ok {
			bytes = oms.ClassBytes(class)
		}
	}
	return entry.OBits, bytes
}
