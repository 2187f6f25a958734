package vm

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/mem"
)

// Process is one address space with a PID.
type Process struct {
	PID   arch.PID
	Table *PageTable
}

// Manager is the OS memory-management layer: it owns the frame pool,
// the process table, and per-frame share counts for copy-on-write.
type Manager struct {
	Mem     *mem.Memory
	procs   map[arch.PID]*Process
	refs    map[arch.PPN]int
	nextPID arch.PID
}

// NewManager creates a manager over the given memory.
func NewManager(m *mem.Memory) *Manager {
	return &Manager{
		Mem:     m,
		procs:   make(map[arch.PID]*Process),
		refs:    make(map[arch.PPN]int),
		nextPID: 1,
	}
}

// NewProcess creates an empty process.
func (mgr *Manager) NewProcess() *Process {
	p := &Process{PID: mgr.nextPID, Table: NewPageTable()}
	mgr.nextPID++
	mgr.procs[p.PID] = p
	return p
}

// Process looks up a process by PID.
func (mgr *Manager) Process(pid arch.PID) (*Process, bool) {
	p, ok := mgr.procs[pid]
	return p, ok
}

// Refs returns the share count of a frame (0 for unmapped frames).
func (mgr *Manager) Refs(ppn arch.PPN) int { return mgr.refs[ppn] }

// AddRef increments a frame's share count; callers use it when they copy
// a mapping into another address space outside Fork.
func (mgr *Manager) AddRef(ppn arch.PPN) {
	if mgr.refs[ppn] == 0 && ppn != mem.ZeroPPN {
		panic(fmt.Sprintf("vm: AddRef on unreferenced frame %#x", uint64(ppn)))
	}
	mgr.refs[ppn]++
}

// MapAnon maps n fresh zeroed frames starting at vpn, writable.
func (mgr *Manager) MapAnon(p *Process, vpn arch.VPN, n int) error {
	for i := 0; i < n; i++ {
		ppn, err := mgr.Mem.Alloc()
		if err != nil {
			return fmt.Errorf("vm: map anon at vpn %#x: %w", uint64(vpn)+uint64(i), err)
		}
		p.Table.Map(vpn+arch.VPN(i), PTE{Present: true, Writable: true, PPN: ppn})
		mgr.refs[ppn] = 1
	}
	return nil
}

// MapZero maps n virtual pages to the shared zero page. overlay selects
// whether writes should go to an overlay (the sparse-data-structure
// representation of §5.2) instead of breaking COW with a copy.
func (mgr *Manager) MapZero(p *Process, vpn arch.VPN, n int, overlay bool) {
	for i := 0; i < n; i++ {
		p.Table.Map(vpn+arch.VPN(i), PTE{
			Present: true, Writable: false, COW: true, Overlay: overlay, PPN: mem.ZeroPPN,
		})
		mgr.refs[mem.ZeroPPN]++
	}
}

// Unmap removes a mapping and releases the frame when its share count
// drops to zero.
func (mgr *Manager) Unmap(p *Process, vpn arch.VPN) error {
	pte, ok := p.Table.Unmap(vpn)
	if !ok {
		return fmt.Errorf("vm: unmap of unmapped vpn %#x", uint64(vpn))
	}
	mgr.release(pte.PPN)
	return nil
}

func (mgr *Manager) release(ppn arch.PPN) {
	mgr.refs[ppn]--
	if mgr.refs[ppn] > 0 {
		return
	}
	delete(mgr.refs, ppn)
	if ppn != mem.ZeroPPN {
		mgr.Mem.Free(ppn)
	}
}

// Fork clones parent into a new process. Every present page is shared;
// writable pages are downgraded to copy-on-write in BOTH address spaces.
// overlayMode marks the shared pages for overlay-on-write instead of
// conventional copy-on-write — this is the only OS-visible difference
// between the two mechanisms (§2.2).
func (mgr *Manager) Fork(parent *Process, overlayMode bool) *Process {
	child := mgr.NewProcess()
	parent.Table.Range(func(vpn arch.VPN, pte PTE) bool {
		if pte.Writable || pte.COW {
			pte.Writable = false
			pte.COW = true
			pte.Overlay = pte.Overlay || overlayMode
			*parent.Table.Lookup(vpn) = pte
		}
		child.Table.Map(vpn, pte)
		mgr.refs[pte.PPN]++
		return true
	})
	return child
}

// BreakCOW resolves a conventional copy-on-write fault on (p, vpn): if the
// frame is still shared it allocates a new frame and copies the page;
// if this process is the last sharer it simply re-enables writes. It
// returns the (possibly new) PPN and whether a full page copy happened.
func (mgr *Manager) BreakCOW(p *Process, vpn arch.VPN) (arch.PPN, bool, error) {
	pte := p.Table.Lookup(vpn)
	if pte == nil {
		return 0, false, fmt.Errorf("vm: COW fault on unmapped vpn %#x", uint64(vpn))
	}
	if !pte.COW {
		return 0, false, fmt.Errorf("vm: COW fault on non-COW vpn %#x", uint64(vpn))
	}
	if mgr.refs[pte.PPN] == 1 && pte.PPN != mem.ZeroPPN {
		pte.COW = false
		pte.Writable = true
		return pte.PPN, false, nil
	}
	newPPN, err := mgr.Mem.Alloc()
	if err != nil {
		return 0, false, fmt.Errorf("vm: COW copy: %w", err)
	}
	mgr.Mem.CopyPage(newPPN, pte.PPN)
	mgr.release(pte.PPN)
	pte.PPN = newPPN
	pte.COW = false
	pte.Writable = true
	mgr.refs[newPPN] = 1
	return newPPN, true, nil
}

// ShareFrame remaps (p, vpn) onto an existing frame, releasing the page's
// old frame. The page becomes read-only copy-on-write; overlay selects
// overlay-on-write semantics for future writes. Fine-grained
// deduplication (§5.3.1) uses this to fold near-duplicate pages onto a
// single base page.
func (mgr *Manager) ShareFrame(p *Process, vpn arch.VPN, target arch.PPN, overlay bool) error {
	pte := p.Table.Lookup(vpn)
	if pte == nil {
		return fmt.Errorf("vm: ShareFrame on unmapped vpn %#x", uint64(vpn))
	}
	if mgr.refs[target] == 0 {
		return fmt.Errorf("vm: ShareFrame onto unreferenced frame %#x", uint64(target))
	}
	if pte.PPN == target {
		return nil
	}
	mgr.release(pte.PPN)
	pte.PPN = target
	pte.COW = true
	pte.Writable = false
	pte.Overlay = overlay
	mgr.refs[target]++
	return nil
}

// ReplaceFrame remaps vpn to a freshly allocated private frame (already
// populated by the caller), releasing the old frame's share. The page
// becomes writable and non-COW. Used by overlay promotion (§4.3.4).
func (mgr *Manager) ReplaceFrame(p *Process, vpn arch.VPN, newPPN arch.PPN) error {
	pte := p.Table.Lookup(vpn)
	if pte == nil {
		return fmt.Errorf("vm: ReplaceFrame on unmapped vpn %#x", uint64(vpn))
	}
	mgr.release(pte.PPN)
	pte.PPN = newPPN
	pte.COW = false
	pte.Writable = true
	mgr.refs[newPPN] = 1
	return nil
}

// Exit tears down a process, releasing every frame it maps.
func (mgr *Manager) Exit(p *Process) {
	p.Table.Range(func(vpn arch.VPN, pte PTE) bool {
		mgr.release(pte.PPN)
		return true
	})
	delete(mgr.procs, p.PID)
	p.Table = NewPageTable()
}

// MappedPages counts the present PTEs across every live process —
// the page-table footprint translation backends charge metadata for.
func (mgr *Manager) MappedPages() int {
	n := 0
	for _, p := range mgr.procs {
		n += p.Table.Mapped()
	}
	return n
}

// ReadBytes copies length bytes starting at va out of the process's
// memory through the page tables (no overlays; internal/core layers
// overlay semantics on top).
func (mgr *Manager) ReadBytes(p *Process, va arch.VirtAddr, buf []byte) error {
	for n := 0; n < len(buf); {
		a := va + arch.VirtAddr(n)
		pte, ok := p.Table.Get(a.Page())
		if !ok {
			return fmt.Errorf("vm: read fault at %#x", uint64(a))
		}
		span := int(arch.PageSize - a.Offset())
		if span > len(buf)-n {
			span = len(buf) - n
		}
		mgr.Mem.ReadSpan(pte.PPN, a.Offset(), buf[n:n+span])
		n += span
	}
	return nil
}

// WriteBytes writes through the page tables, resolving COW faults with
// conventional page copies. It is the no-overlay baseline write path.
func (mgr *Manager) WriteBytes(p *Process, va arch.VirtAddr, data []byte) error {
	for n := 0; n < len(data); {
		a := va + arch.VirtAddr(n)
		pte, ok := p.Table.Get(a.Page())
		if !ok {
			return fmt.Errorf("vm: write fault at %#x", uint64(a))
		}
		if !pte.Writable {
			if !pte.COW {
				return fmt.Errorf("vm: write to read-only page %#x", uint64(a.Page()))
			}
			ppn, _, err := mgr.BreakCOW(p, a.Page())
			if err != nil {
				return err
			}
			pte.PPN = ppn
		}
		span := int(arch.PageSize - a.Offset())
		if span > len(data)-n {
			span = len(data) - n
		}
		mgr.Mem.WriteSpan(pte.PPN, a.Offset(), data[n:n+span])
		n += span
	}
	return nil
}
