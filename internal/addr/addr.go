// Package addr provides virtual- and physical-address arithmetic for the
// simulated x86-64 memory system: 4KB base pages, 2MB huge pages, page
// numbers, offsets, and address ranges.
//
// All addresses are 64-bit. Virtual addresses follow the canonical x86-64
// layout with 48 significant bits split into four 9-bit radix indices plus a
// 12-bit page offset. A 2MB huge page maps an entire page-directory (level 2)
// leaf: 21 offset bits.
package addr

import "fmt"

// Page-size constants, in bytes.
const (
	// PageShift4K is the offset width of a 4KB base page.
	PageShift4K = 12
	// PageShift2M is the offset width of a 2MB huge page.
	PageShift2M = 21

	// PageSize4K is the size of a base page (4096 bytes).
	PageSize4K uint64 = 1 << PageShift4K
	// PageSize2M is the size of a huge page (2MiB).
	PageSize2M uint64 = 1 << PageShift2M

	// PagesPerHuge is the number of 4KB pages spanned by one 2MB page (512).
	PagesPerHuge = int(PageSize2M / PageSize4K)

	// CanonicalBits is the number of significant virtual-address bits.
	CanonicalBits = 48
)

// Virt is a virtual address in the simulated guest address space.
type Virt uint64

// Phys is a physical (machine) address in the simulated memory system.
type Phys uint64

// PageNum4K returns the 4KB virtual page number containing v.
func (v Virt) PageNum4K() uint64 { return uint64(v) >> PageShift4K }

// PageNum2M returns the 2MB virtual page number containing v.
func (v Virt) PageNum2M() uint64 { return uint64(v) >> PageShift2M }

// Offset4K returns the byte offset of v within its 4KB page.
func (v Virt) Offset4K() uint64 { return uint64(v) & (PageSize4K - 1) }

// Offset2M returns the byte offset of v within its 2MB page.
func (v Virt) Offset2M() uint64 { return uint64(v) & (PageSize2M - 1) }

// Base4K returns the base address of the 4KB page containing v.
func (v Virt) Base4K() Virt { return v &^ Virt(PageSize4K-1) }

// Base2M returns the base address of the 2MB page containing v.
func (v Virt) Base2M() Virt { return v &^ Virt(PageSize2M-1) }

// SubpageIndex returns the index (0..511) of v's 4KB page within its 2MB page.
func (v Virt) SubpageIndex() int {
	return int((uint64(v) >> PageShift4K) & (uint64(PagesPerHuge) - 1))
}

// String renders the address in hex.
func (v Virt) String() string { return fmt.Sprintf("0x%012x", uint64(v)) }

// String renders the address in hex.
func (p Phys) String() string { return fmt.Sprintf("0x%012x", uint64(p)) }

// FrameNum4K returns the 4KB physical frame number containing p.
func (p Phys) FrameNum4K() uint64 { return uint64(p) >> PageShift4K }

// FrameNum2M returns the 2MB physical frame number containing p.
func (p Phys) FrameNum2M() uint64 { return uint64(p) >> PageShift2M }

// Base4K returns the base address of the 4KB frame containing p.
func (p Phys) Base4K() Phys { return p &^ Phys(PageSize4K-1) }

// Base2M returns the base address of the 2MB frame containing p.
func (p Phys) Base2M() Phys { return p &^ Phys(PageSize2M-1) }

// Virt4K returns the base virtual address of 4KB page number n.
func Virt4K(n uint64) Virt { return Virt(n << PageShift4K) }

// Virt2M returns the base virtual address of 2MB page number n.
func Virt2M(n uint64) Virt { return Virt(n << PageShift2M) }

// Phys4K returns the base physical address of 4KB frame number n.
func Phys4K(n uint64) Phys { return Phys(n << PageShift4K) }

// Phys2M returns the base physical address of 2MB frame number n.
func Phys2M(n uint64) Phys { return Phys(n << PageShift2M) }

// Radix indices for the 4-level x86-64 page-table walk. Level 4 is the root
// (PML4), level 1 the page table whose entries map 4KB pages.
const (
	radixBits = 9
	radixMask = (1 << radixBits) - 1
)

// Index returns the 9-bit radix index of v at the given page-table level
// (4 = PML4, 3 = PDPT, 2 = PD, 1 = PT).
func Index(v Virt, level int) int {
	if level < 1 || level > 4 {
		panic(fmt.Sprintf("addr: invalid page-table level %d", level))
	}
	shift := PageShift4K + radixBits*(level-1)
	return int((uint64(v) >> shift) & radixMask)
}

// Range is a half-open virtual address interval [Start, End).
type Range struct {
	Start Virt
	End   Virt
}

// NewRange returns the range [start, start+size).
func NewRange(start Virt, size uint64) Range {
	return Range{Start: start, End: start + Virt(size)}
}

// Size returns the byte length of the range.
func (r Range) Size() uint64 {
	if r.End <= r.Start {
		return 0
	}
	return uint64(r.End - r.Start)
}

// Contains reports whether v lies inside the range.
func (r Range) Contains(v Virt) bool { return v >= r.Start && v < r.End }

// Overlaps reports whether r and o share any address.
func (r Range) Overlaps(o Range) bool {
	return r.Start < o.End && o.Start < r.End
}

// Pages4K returns the number of 4KB pages the range touches, counting partial
// pages at either end.
func (r Range) Pages4K() uint64 {
	if r.Size() == 0 {
		return 0
	}
	first := r.Start.PageNum4K()
	last := (r.End - 1).PageNum4K()
	return last - first + 1
}

// Pages2M returns the number of 2MB pages the range touches, counting partial
// pages at either end.
func (r Range) Pages2M() uint64 {
	if r.Size() == 0 {
		return 0
	}
	first := r.Start.PageNum2M()
	last := (r.End - 1).PageNum2M()
	return last - first + 1
}

// Each2M calls fn with the base address of every 2MB page the range touches.
func (r Range) Each2M(fn func(base Virt)) {
	if r.Size() == 0 {
		return
	}
	for n := r.Start.PageNum2M(); n <= (r.End - 1).PageNum2M(); n++ {
		fn(Virt2M(n))
	}
}

// String renders the range as [start, end).
func (r Range) String() string {
	return fmt.Sprintf("[%s, %s)", r.Start, r.End)
}
