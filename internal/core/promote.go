package core

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/vm"
)

// PromoteAction selects how an overlay is converted back to a regular
// physical page (§4.3.4).
type PromoteAction int

const (
	// CopyAndCommit copies the regular physical page to a fresh page,
	// applies the overlay on top, and remaps the virtual page there.
	// Overlay-on-write uses this when an overlay grows too dense.
	CopyAndCommit PromoteAction = iota
	// Commit applies the overlay lines onto the regular physical page in
	// place (speculation success, checkpoint commit).
	Commit
	// Discard drops the overlay; the page reverts to the regular physical
	// page's contents (speculation abort).
	Discard
)

func (a PromoteAction) String() string {
	switch a {
	case CopyAndCommit:
		return "copy-and-commit"
	case Commit:
		return "commit"
	case Discard:
		return "discard"
	}
	return fmt.Sprintf("PromoteAction(%d)", int(a))
}

// Promote applies the chosen action to (proc, vpn)'s overlay and clears
// all overlay state for the page: the OMT entry, the OMT cache, every
// TLB's OBitVector, the Overlay Memory Store segment, and any overlay
// lines in the cache hierarchy. Promoting a page with no overlay is an
// error for Commit/Discard and permitted for CopyAndCommit (it degrades
// to a plain COW break).
func (f *Framework) Promote(proc *vm.Process, vpn arch.VPN, action PromoteAction) error {
	pte := proc.Table.Lookup(vpn)
	if pte == nil {
		return fmt.Errorf("core: promote of unmapped vpn %#x", uint64(vpn))
	}
	opn := arch.OverlayPage(proc.PID, vpn)
	entry := f.OMTTable.Get(opn)
	if tr := f.Engine.Trace; tr != nil {
		tr.Emit(f.Engine.Now(), "promote", action.String(),
			sim.TraceArg{Key: "pid", Val: uint64(proc.PID)},
			sim.TraceArg{Key: "vpn", Val: uint64(vpn)},
			sim.TraceArg{Key: "lines", Val: uint64(entry.OBits.Count())})
	}

	switch action {
	case CopyAndCommit:
		newPPN, err := f.Mem.Alloc()
		if err != nil {
			return fmt.Errorf("core: promote: %w", err)
		}
		f.Mem.CopyPage(newPPN, pte.PPN)
		f.applyOverlayOnto(opn, newPPN)
		if err := f.VM.ReplaceFrame(proc, vpn, newPPN); err != nil {
			return err
		}
		f.Engine.Stats.Inc("core.promote_copy_and_commit")

	case Commit:
		if entry.Empty() {
			return fmt.Errorf("core: commit of vpn %#x with no overlay", uint64(vpn))
		}
		if f.VM.Refs(pte.PPN) > 1 || pte.PPN == mem.ZeroPPN {
			return fmt.Errorf("core: commit onto shared page vpn %#x", uint64(vpn))
		}
		f.applyOverlayOnto(opn, pte.PPN)
		pte.COW = false
		pte.Writable = true
		f.Engine.Stats.Inc("core.promote_commit")

	case Discard:
		if entry.Empty() {
			return fmt.Errorf("core: discard of vpn %#x with no overlay", uint64(vpn))
		}
		f.Engine.Stats.Inc("core.promote_discard")

	default:
		return fmt.Errorf("core: unknown promote action %v", action)
	}

	f.clearOverlay(proc.PID, vpn)
	return nil
}

// applyOverlayOnto copies every overlay line's bytes onto the frame.
func (f *Framework) applyOverlayOnto(opn arch.OPN, dst arch.PPN) {
	entry := f.OMTTable.Get(opn)
	if entry.SegBase == 0 {
		return
	}
	var buf [arch.LineSize]byte
	for _, line := range entry.OBits.Lines() {
		slot, ok := f.OMS.LocateLine(entry.SegBase, line)
		if !ok {
			continue
		}
		f.OMS.ReadLineData(slot, buf[:])
		f.Mem.WriteLine(dst, line, buf[:])
	}
}

// clearOverlay releases every piece of overlay state for the page.
func (f *Framework) clearOverlay(pid arch.PID, vpn arch.VPN) {
	opn := arch.OverlayPage(pid, vpn)
	entry := f.OMTTable.Get(opn)
	for _, line := range entry.OBits.Lines() {
		f.Hier.Invalidate(opn.LineAddr(line))
		for _, p := range f.ports {
			p.TLB.UpdateLine(pid, vpn, line, false)
		}
	}
	if entry.SegBase != 0 {
		f.OMS.FreeSegment(entry.SegBase)
	}
	f.OMTTable.Delete(opn)
	f.OMTCache.Invalidate(opn)
	for _, p := range f.ports {
		p.TLB.Invalidate(pid, vpn)
	}
}
