package core

import (
	"fmt"

	"repro/internal/arch"
)

// Shadow-memory support (§5.3.4): for a page mapped with the Shadow mode
// bit, the Overlay Address Space serves as shadow memory for the virtual
// address space. Regular loads and stores access the data page and ignore
// the overlay entirely; the metadata load/store "instructions" below
// access the overlay. Overlay lines are created on first metadata store
// and read back as zeroes when absent — no metadata-specific hardware
// beyond the overlay framework itself.

// ShadowStore writes metadata bytes at (pid, va) into the page's overlay.
// The page must be mapped with the Shadow bit.
func (f *Framework) ShadowStore(pid arch.PID, va arch.VirtAddr, data []byte) error {
	proc, ok := f.VM.Process(pid)
	if !ok {
		return fmt.Errorf("core: no process %d", pid)
	}
	for n := 0; n < len(data); {
		a := va + arch.VirtAddr(n)
		pte, ok := proc.Table.Get(a.Page())
		if !ok {
			return fmt.Errorf("core: shadow store fault at %#x", uint64(a))
		}
		if !pte.Shadow {
			return fmt.Errorf("core: shadow store to non-shadow page %#x", uint64(a.Page()))
		}
		entry := f.OMTTable.Ref(arch.OverlayPage(pid, a.Page()))
		loc, err := f.overlayInsert(pid, a.Page(), entry, a.Line(), nil)
		if err != nil {
			return err
		}
		span := int(arch.LineSize - a.LineOffset())
		if span > len(data)-n {
			span = len(data) - n
		}
		f.Mem.WriteSpan(loc.ppn, loc.off+a.LineOffset(), data[n:n+span])
		n += span
	}
	f.Engine.Stats.Inc("core.shadow_stores")
	return nil
}

// ShadowLoad reads metadata bytes at (pid, va) from the page's overlay;
// lines with no metadata yet read as zeroes.
func (f *Framework) ShadowLoad(pid arch.PID, va arch.VirtAddr, buf []byte) error {
	proc, ok := f.VM.Process(pid)
	if !ok {
		return fmt.Errorf("core: no process %d", pid)
	}
	for n := 0; n < len(buf); {
		a := va + arch.VirtAddr(n)
		pte, ok := proc.Table.Get(a.Page())
		if !ok {
			return fmt.Errorf("core: shadow load fault at %#x", uint64(a))
		}
		if !pte.Shadow {
			return fmt.Errorf("core: shadow load from non-shadow page %#x", uint64(a.Page()))
		}
		span := int(arch.LineSize - a.LineOffset())
		if span > len(buf)-n {
			span = len(buf) - n
		}
		opn := arch.OverlayPage(pid, a.Page())
		entry := f.OMTTable.Get(opn)
		if entry.OBits.Has(a.Line()) {
			loc, err := f.overlayLineLoc(opn, &entry, a.Line())
			if err != nil {
				return err
			}
			f.Mem.ReadSpan(loc.ppn, loc.off+a.LineOffset(), buf[n:n+span])
		} else {
			for i := 0; i < span; i++ {
				buf[n+i] = 0
			}
		}
		n += span
	}
	f.Engine.Stats.Inc("core.shadow_loads")
	return nil
}
