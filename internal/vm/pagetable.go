// Package vm implements the baseline virtual-memory substrate the overlay
// framework plugs into: 4-level radix page tables, per-process address
// spaces, anonymous and zero-page mappings, and fork with copy-on-write
// sharing. The overlay framework (internal/core) leaves all of this
// untouched — exactly the paper's point that overlays "largely retain the
// structure of the existing virtual memory framework" — and only consults
// the OverlayEnabled/COW bits the OS sets here.
package vm

import (
	"fmt"

	"repro/internal/arch"
)

// PTE is a leaf page-table entry. The overlay framework adds no fields to
// it beyond the two OS-visible mode bits.
type PTE struct {
	Present  bool
	Writable bool
	COW      bool // copy-on-write: writes must not hit PPN in place
	Overlay  bool // OS opted this page into overlay-on-write / overlays
	Shadow   bool // overlay holds fine-grained metadata, not data (§5.3.4)
	PPN      arch.PPN
}

// PageTable is a 4-level radix table mapping VPN → PTE (48-bit virtual
// addresses, 9 bits a level). A non-present PTE is the zero PTE.
type PageTable struct {
	tree   arch.Radix[PTE]
	mapped int
}

// NewPageTable returns an empty page table.
func NewPageTable() *PageTable { return &PageTable{tree: arch.NewRadix[PTE](4)} }

// Get returns the PTE for vpn and whether it is present.
func (pt *PageTable) Get(vpn arch.VPN) (PTE, bool) {
	pte := pt.tree.Get(uint64(vpn))
	return pte, pte.Present
}

// Lookup returns a writable pointer to the PTE for vpn, or nil if vpn is
// not mapped. Unlike Get, it copies any node shared with a capture.
func (pt *PageTable) Lookup(vpn arch.VPN) *PTE {
	if _, ok := pt.Get(vpn); !ok {
		return nil
	}
	return pt.tree.Ref(uint64(vpn))
}

// Map installs a mapping; it panics on double-map (an OS bug upstream).
func (pt *PageTable) Map(vpn arch.VPN, pte PTE) {
	slot := pt.tree.Ref(uint64(vpn))
	if slot.Present {
		panic(fmt.Sprintf("vm: vpn %#x already mapped", uint64(vpn)))
	}
	if !pte.Present {
		panic("vm: mapping a non-present PTE")
	}
	*slot = pte
	pt.mapped++
}

// Unmap removes the mapping and returns the old PTE; ok=false if absent.
func (pt *PageTable) Unmap(vpn arch.VPN) (PTE, bool) {
	pte := pt.Lookup(vpn)
	if pte == nil {
		return PTE{}, false
	}
	old := *pte
	*pte = PTE{}
	pt.mapped--
	return old, true
}

// Mapped returns the number of present leaf entries.
func (pt *PageTable) Mapped() int { return pt.mapped }

// Range calls fn with every present mapping in ascending VPN order until
// fn returns false. A caller that changes a PTE writes it via Lookup.
func (pt *PageTable) Range(fn func(vpn arch.VPN, pte PTE) bool) {
	pt.tree.Range(func(key uint64, pte PTE) bool { return fn(arch.VPN(key), pte) })
}

// Share returns a table holding pt's nodes for a capture (arch.Radix);
// a copy of the share is an independent table.
func (pt *PageTable) Share() PageTable { return PageTable{pt.tree.Share(), pt.mapped} }
