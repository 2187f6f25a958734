// Package arch defines the address-space geometry shared by every other
// package in the simulator: page and cache-line sizes, virtual, physical
// and overlay address composition, the OBitVector that records which
// cache lines of a virtual page live in its overlay, and LineMap, the
// hash map keyed by line number that per-access tables use instead of a
// Go map.
//
// The layout follows Section 4.1 of the paper: the physical address space
// is widened by one bit; addresses with the overlay bit set form the
// Overlay Address Space, and the overlay page number for virtual page VPN
// of process PID is the direct (translation-free) concatenation
//
//	OPN = 1 | PID | VPN
package arch

import "fmt"

// Fundamental geometry. The paper evaluates a system with 4 KB pages and
// 64 B cache lines, giving 64 lines per page — exactly one line per bit of
// a 64-bit OBitVector.
const (
	PageShift = 12
	PageSize  = 1 << PageShift // 4096
	PageMask  = PageSize - 1

	LineShift = 6
	LineSize  = 1 << LineShift // 64
	LineMask  = LineSize - 1

	LinesPerPage = PageSize / LineSize // 64

	// VirtBits is the width of a per-process virtual address (x86-64
	// canonical). PIDBits processes are supported; with a 64-bit widened
	// physical address this matches the paper's 2^15 processes.
	VirtBits = 48
	PIDBits  = 15

	// OverlayBit is the MSB of the widened physical address space. A
	// physical address with this bit set belongs to the Overlay Address
	// Space and is not directly backed by main memory.
	OverlayBit = uint64(1) << 63

	// ColdBit tags an OMS segment handle as a cold (unswizzled) reference
	// to a segment evicted to the spill tier rather than a direct physical
	// base address. Direct handles are small DRAM addresses, so the tag can
	// never collide with a resident segment base; it is also distinct from
	// OverlayBit, so a cold reference is never mistaken for an overlay
	// address.
	ColdBit = uint64(1) << 62
)

// VirtAddr is a per-process virtual address.
type VirtAddr uint64

// PhysAddr is an address in the widened physical address space. Addresses
// with OverlayBit set are overlay addresses; the rest are regular physical
// addresses directly backed by main memory.
type PhysAddr uint64

// PID identifies a process (address-space ID).
type PID uint32

// VPN and PPN are virtual and physical page numbers.
type (
	VPN uint64
	PPN uint64
)

// OPN is an overlay page number: the page number of a page inside the
// Overlay Address Space (with the overlay bit folded in).
type OPN uint64

// Page returns the virtual page number of the address.
func (v VirtAddr) Page() VPN { return VPN(v >> PageShift) }

// Offset returns the byte offset of the address within its page.
func (v VirtAddr) Offset() uint64 { return uint64(v) & PageMask }

// Line returns the index (0..63) of the cache line the address falls in.
func (v VirtAddr) Line() int { return int(uint64(v)&PageMask) >> LineShift }

// LineOffset returns the byte offset within the cache line.
func (v VirtAddr) LineOffset() uint64 { return uint64(v) & LineMask }

// Canonical reports whether the address fits the supported virtual width.
func (v VirtAddr) Canonical() bool { return uint64(v)>>VirtBits == 0 }

// Addr reconstructs a virtual address from a page number and offset.
func (p VPN) Addr() VirtAddr { return VirtAddr(uint64(p) << PageShift) }

// Page returns the physical page number; the overlay bit, if any, is
// preserved in the page number so overlay and regular pages never collide.
func (p PhysAddr) Page() uint64 { return uint64(p) >> PageShift }

// IsOverlay reports whether the address lies in the Overlay Address Space.
func (p PhysAddr) IsOverlay() bool { return uint64(p)&OverlayBit != 0 }

// IsCold reports whether the value is a cold spill-tier reference to an
// evicted OMS segment rather than a direct (swizzled) segment base.
func (p PhysAddr) IsCold() bool { return uint64(p)&ColdBit != 0 }

// Line returns the cache-line index within the page.
func (p PhysAddr) Line() int { return int(uint64(p)&PageMask) >> LineShift }

// LineAligned returns the address rounded down to its cache line.
func (p PhysAddr) LineAligned() PhysAddr { return p &^ LineMask }

// PageAligned returns the address rounded down to its page.
func (p PhysAddr) PageAligned() PhysAddr { return p &^ PageMask }

// PhysAddrOf composes a regular physical address from a physical page
// number and an in-page offset.
func PhysAddrOf(ppn PPN, offset uint64) PhysAddr {
	return PhysAddr(uint64(ppn)<<PageShift | offset&PageMask)
}

// OverlayPage computes the overlay page number for (pid, vpn) per the
// direct mapping of Figure 5: overlay bit, then PID, then the virtual page
// number. Because no two virtual pages map to the same overlay page, the
// synonym problem cannot arise in the overlay space.
func OverlayPage(pid PID, vpn VPN) OPN {
	return OPN(OverlayBit>>PageShift | uint64(pid)<<(VirtBits-PageShift) | uint64(vpn))
}

// SplitOverlayPage recovers (pid, vpn) from an overlay page number. It is
// the inverse of OverlayPage and panics if opn is not an overlay page.
func SplitOverlayPage(opn OPN) (PID, VPN) {
	if uint64(opn)&(OverlayBit>>PageShift) == 0 {
		panic(fmt.Sprintf("arch: %#x is not an overlay page number", uint64(opn)))
	}
	vpnMask := uint64(1)<<(VirtBits-PageShift) - 1
	pid := PID(uint64(opn) >> (VirtBits - PageShift) & (1<<PIDBits - 1))
	return pid, VPN(uint64(opn) & vpnMask)
}

// Addr composes the overlay physical address of the given byte offset
// inside the overlay page.
func (o OPN) Addr(offset uint64) PhysAddr {
	return PhysAddr(uint64(o)<<PageShift | offset&PageMask)
}

// LineAddr composes the overlay physical address of cache line `line`.
func (o OPN) LineAddr(line int) PhysAddr {
	return o.Addr(uint64(line) << LineShift)
}

// OverlayPageOf extracts the OPN from an overlay physical address.
func OverlayPageOf(p PhysAddr) OPN {
	if !p.IsOverlay() {
		panic(fmt.Sprintf("arch: %#x is not an overlay address", uint64(p)))
	}
	return OPN(uint64(p) >> PageShift)
}
