// Package pagetable implements an x86-64-style 4-level radix page table for
// the simulated MMU: PML4 → PDPT → PD → PT, with 2MB huge-page leaves at the
// PD level and 4KB leaves at the PT level.
//
// Entries carry the architectural flag bits Thermostat's mechanisms consume:
// Accessed and Dirty (set by simulated hardware walks), and a Poisoned bit
// standing in for PTE reserved bit 51, which BadgerTrap-style fault
// interception uses to trap TLB misses to sampled pages.
//
// The table supports transparent-huge-page style split (one 2MB leaf into
// 512 4KB leaves over the same physical frame) and collapse (the inverse),
// which is how Thermostat samples constituent 4KB pages of a huge page.
package pagetable

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"thermostat/internal/addr"
)

// Flags is the PTE flag word.
type Flags uint16

// Architectural and software PTE flags.
const (
	// Present marks a valid translation.
	Present Flags = 1 << iota
	// Writable permits stores.
	Writable
	// Accessed is set by every hardware walk that uses the entry.
	Accessed
	// Dirty is set by every hardware walk for a store.
	Dirty
	// Huge marks a PD-level 2MB leaf (the PS bit).
	Huge
	// Poisoned models a set reserved bit (bit 51): a hardware walk that
	// reaches a poisoned entry raises a protection fault, which
	// BadgerTrap intercepts to count accesses.
	Poisoned
	// SplitSampled is a software bit marking 4KB leaves that were created
	// by splitting a huge page for sampling (so the engine can tell them
	// apart from native 4KB mappings when reporting footprints).
	SplitSampled
)

// Has reports whether all bits in mask are set.
func (f Flags) Has(mask Flags) bool { return f&mask == mask }

// Entry is one page-table entry, decoded: the value Lookup, Walk and Unmap
// hand out. The table itself stores PTEs.
type Entry struct {
	Frame addr.Phys
	Flags Flags
}

// PTE is one leaf as the table stores it, in the hardware's layout: the
// 4KB-aligned physical frame in bits 12–51, Flags bits 0–11 (the seven
// defined flags and five spare) in the twelve bits below the frame, and Flags
// bits 12–15 in bits 52–55, which x86-64 leaves to software. Every Flags
// value and every 4KB-aligned frame below 2^52 round-trips (TestPTERoundTrip);
// the zero word is a non-present entry.
//
// A *PTE handed out by EntryRef or a sweep points into the table: it reads
// and edits the live entry, and stays valid until the leaf is unmapped, split
// or collapsed.
type PTE uint64

const (
	lowFlagBits = addr.PageShift4K
	lowFlagMask = 1<<lowFlagBits - 1
	frameEnd    = 52
	frameMask   = (1<<frameEnd - 1) &^ lowFlagMask
)

// ErrBadFrame rejects a physical frame a PTE cannot hold: not 4KB-aligned, or
// reaching past bit 51.
var ErrBadFrame = errors.New("pagetable: frame not 4KB-aligned below 2^52")

func checkFrame(p addr.Phys) error {
	if PTE(p)&^frameMask != 0 {
		return fmt.Errorf("%w: %s", ErrBadFrame, p)
	}
	return nil
}

// flagBits places a flag word in its PTE bit positions.
func flagBits(f Flags) PTE {
	return PTE(f&lowFlagMask) | PTE(f>>lowFlagBits)<<frameEnd
}

// Frame returns the physical frame the entry maps.
func (e PTE) Frame() addr.Phys { return addr.Phys(e & frameMask) }

// Flags returns the entry's flag word.
func (e PTE) Flags() Flags {
	return Flags(e&lowFlagMask) | Flags(e>>frameEnd)<<lowFlagBits
}

// Has reports whether all bits in mask are set.
func (e PTE) Has(mask Flags) bool {
	m := flagBits(mask)
	return e&m == m
}

// Entry decodes the PTE.
func (e PTE) Entry() Entry { return Entry{Frame: e.Frame(), Flags: e.Flags()} }

// Set ORs mask into the live entry's flags.
func (e *PTE) Set(mask Flags) { *e |= flagBits(mask) }

// Put replaces the live entry's whole flag word, keeping its frame. Present
// and Huge must stay as found: the table's leaf counts and index follow them.
func (e *PTE) Put(f Flags) { *e = *e&frameMask | flagBits(f) }

// Level identifies where a translation terminated.
type Level int

// Leaf levels.
const (
	// Level4K is a PT-level 4KB leaf.
	Level4K Level = 1
	// Level2M is a PD-level 2MB huge leaf.
	Level2M Level = 2
)

// Radix indices of v at each level. The masked result indexes a [512] array
// without a bounds check.
func idx4(v addr.Virt) int { return int(v>>39) & 511 }
func idx3(v addr.Virt) int { return int(v>>30) & 511 }
func idx2(v addr.Virt) int { return int(v>>addr.PageShift2M) & 511 }
func idx1(v addr.Virt) int { return int(v>>addr.PageShift4K) & 511 }

// Nodes are typed by level, each holding only what its level can hold.
//
// ptNode is a page-table page: 512 PTEs, 4096 bytes, no pointer, so it fills
// its malloc size class exactly and the collector never scans it. It is what
// a sampled (split) huge page costs. Its live-leaf count lives in the PD node
// above it (pdNode.live) to keep it that size.
type ptNode [512]PTE

// pdNode is a page directory: a slot holds a 2MB leaf in ptes, or a PT node
// in pts with live[slot] present 4KB leaves under it, or nothing.
type pdNode struct {
	ptes [512]PTE
	pts  [512]*ptNode
	live [512]uint16
	// used counts slots holding a huge leaf or a PT node, so Unmap can prune
	// an empty directory.
	used int
}

// pdptNode is a page-directory-pointer table: pointers only.
type pdptNode struct {
	pds  [512]*pdNode
	used int
}

// regionRef locates one PD slot that holds at least one present leaf: either
// a 2MB huge leaf in pd.ptes[slot], or a PT node at pd.pts[slot] with one or
// more present 4KB leaves, where slot is idx2(base). base is the slot's
// 2MB-aligned virtual base. PTE pointers derived from a regionRef stay valid
// for the leaf's lifetime because nodes are never reallocated, only unlinked.
type regionRef struct {
	base addr.Virt
	pd   *pdNode
}

// Table is a 4-level page table.
//
// Alongside the radix tree it maintains index, an ordered list of the PD
// slots that hold any leaf. Sweeps (Scan, ScanRange, ScanHuge) walk the index
// linearly and expand each slot in place: a slot with no PT node under it is
// one 2MB leaf, otherwise the PT node is walked for its present 4KB leaves.
// Invariant: index holds exactly one ref per PD slot with at least one
// present leaf, in strictly increasing base order, so a sweep visits leaves
// in the order a depth-first radix walk produces (scanRadix in fuzz_test.go
// is that walk, kept as the fuzz oracle).
// Split and Collapse change what a slot holds, never whether it holds
// something, so they leave the index alone; Map2M/Unmap of a huge leaf and
// the first Map4K into / last Unmap out of a PT node insert or remove one ref.
type Table struct {
	// root is the PML4, pointers only and never pruned.
	root    [512]*pdptNode
	count4K int
	count2M int
	index   []regionRef
	// Allocated nodes below the root, by kind, for StateBytes.
	nPDPT, nPD, nPT int
}

// New returns an empty table.
func New() *Table { return &Table{} }

// slotPos returns the position of the first index ref with base >= b.
func (t *Table) slotPos(b addr.Virt) int {
	return sort.Search(len(t.index), func(i int) bool { return t.index[i].base >= b })
}

// insertSlot adds one PD slot to the index. Mappings are installed by a
// bump-pointer allocator in practice, so appending at the end is the common
// case; anything else falls back to a binary search and a shift.
func (t *Table) insertSlot(r regionRef) {
	if n := len(t.index); n == 0 || t.index[n-1].base < r.base {
		t.index = append(t.index, r)
		return
	}
	t.index = slices.Insert(t.index, t.slotPos(r.base), r)
}

// removeSlot drops the PD slot based at b from the index. An index emptied
// by the removal is released, so a fully unmapped table holds no index
// memory.
func (t *Table) removeSlot(b addr.Virt) {
	pos := t.slotPos(b)
	if pos == len(t.index) || t.index[pos].base != b {
		return
	}
	if len(t.index) == 1 {
		t.index = nil
		return
	}
	// Delete zeroes the vacated tail, so a pruned PD node can be collected.
	t.index = slices.Delete(t.index, pos, pos+1)
}

// Count4K returns the number of present 4KB leaf entries.
func (t *Table) Count4K() int { return t.count4K }

// Count2M returns the number of present 2MB leaf entries.
func (t *Table) Count2M() int { return t.count2M }

// MappedBytes returns the total bytes mapped.
func (t *Table) MappedBytes() uint64 {
	return uint64(t.count4K)*addr.PageSize4K + uint64(t.count2M)*addr.PageSize2M
}

// pd returns the PD node covering v, or nil.
func (t *Table) pd(v addr.Virt) *pdNode {
	if pdpt := t.root[idx4(v)]; pdpt != nil {
		return pdpt.pds[idx3(v)]
	}
	return nil
}

// pdCreate returns the PD node covering v, allocating it and the PDPT node
// above it as needed.
func (t *Table) pdCreate(v addr.Virt) *pdNode {
	pdpt := t.root[idx4(v)]
	if pdpt == nil {
		pdpt = &pdptNode{}
		t.root[idx4(v)] = pdpt
		t.nPDPT++
	}
	pd := pdpt.pds[idx3(v)]
	if pd == nil {
		pd = &pdNode{}
		pdpt.pds[idx3(v)] = pd
		pdpt.used++
		t.nPD++
	}
	return pd
}

// Map4K installs a 4KB translation v -> p, p rounded down to its 4KB frame.
// Fails if v is already mapped at either grain.
func (t *Table) Map4K(v addr.Virt, p addr.Phys, flags Flags) error {
	if e, _, ok := t.Lookup(v); ok {
		return fmt.Errorf("pagetable: %s already mapped to %s", v, e.Frame)
	}
	p = p.Base4K()
	if err := checkFrame(p); err != nil {
		return fmt.Errorf("pagetable: Map4K of %s: %w", v, err)
	}
	// Lookup ruled out a huge leaf over v, so the PD slot is empty or holds
	// a PT node.
	pd := t.pdCreate(v)
	slot := idx2(v)
	pt := pd.pts[slot]
	if pt == nil {
		pt = new(ptNode)
		pd.pts[slot] = pt
		pd.used++
		t.nPT++
		t.insertSlot(regionRef{base: v.Base2M(), pd: pd})
	}
	pt[idx1(v)] = PTE(p) | flagBits(flags|Present)
	pd.live[slot]++
	t.count4K++
	return nil
}

// Map2M installs a 2MB translation v -> p at the PD level. v and p must be
// 2MB-aligned. Fails if any 4KB page in the range is already mapped.
func (t *Table) Map2M(v addr.Virt, p addr.Phys, flags Flags) error {
	if v.Base2M() != v {
		return fmt.Errorf("pagetable: Map2M of unaligned virtual %s", v)
	}
	if p.Base2M() != p {
		return fmt.Errorf("pagetable: Map2M of unaligned physical %s", p)
	}
	if err := checkFrame(p); err != nil {
		return fmt.Errorf("pagetable: Map2M of %s: %w", v, err)
	}
	pd := t.pdCreate(v)
	i := idx2(v)
	if pd.ptes[i].Has(Present) {
		return fmt.Errorf("pagetable: %s already huge-mapped", v)
	}
	if pd.pts[i] != nil {
		return fmt.Errorf("pagetable: %s overlaps existing 4KB mappings", v)
	}
	pd.ptes[i] = PTE(p) | flagBits(flags|Present|Huge)
	pd.used++
	t.count2M++
	t.insertSlot(regionRef{base: v, pd: pd})
	return nil
}

// entryRef returns a pointer to the leaf entry mapping v, or nil.
func (t *Table) entryRef(v addr.Virt) (*PTE, Level) {
	pd := t.pd(v)
	if pd == nil {
		return nil, 0
	}
	i := idx2(v)
	if e := &pd.ptes[i]; e.Has(Present | Huge) {
		return e, Level2M
	}
	if pt := pd.pts[i]; pt != nil {
		if e := &pt[idx1(v)]; e.Has(Present) {
			return e, Level4K
		}
	}
	return nil, 0
}

// Lookup finds the translation for v without side effects (no Accessed
// update, no poison fault). ok is false if v is unmapped.
func (t *Table) Lookup(v addr.Virt) (Entry, Level, bool) {
	e, lvl := t.entryRef(v)
	if e == nil {
		return Entry{}, 0, false
	}
	return e.Entry(), lvl, true
}

// Translate resolves v to a physical address using Lookup (no side effects).
func (t *Table) Translate(v addr.Virt) (addr.Phys, bool) {
	e, lvl, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	if lvl == Level2M {
		return e.Frame + addr.Phys(v.Offset2M()), true
	}
	return e.Frame + addr.Phys(v.Offset4K()), true
}

// WalkResult describes a simulated hardware page walk.
type WalkResult struct {
	// Entry is the leaf translation found (zero if !Found).
	Entry Entry
	// Level is the leaf level (Level4K or Level2M).
	Level Level
	// Found is false for an unmapped address (page fault).
	Found bool
	// Poisoned is true when the leaf had the Poisoned bit set: the walk
	// raises a protection fault instead of installing a translation.
	Poisoned bool
	// Depth is the number of page-table levels the walker touched (each
	// costs one memory access in the native walk-cost model).
	Depth int
}

// Walk performs a hardware page walk for v: finds the leaf, sets Accessed
// (and Dirty for writes) unless the entry is poisoned, and reports the walk
// depth. A poisoned leaf reports Poisoned=true and leaves flags untouched —
// the MMU raises the fault before retiring the access.
func (t *Table) Walk(v addr.Virt, write bool) WalkResult {
	pdpt := t.root[idx4(v)]
	if pdpt == nil {
		return WalkResult{Depth: 1}
	}
	pd := pdpt.pds[idx3(v)]
	if pd == nil {
		return WalkResult{Depth: 2}
	}
	i := idx2(v)
	if e := &pd.ptes[i]; e.Has(Present | Huge) {
		return finishWalk(e, Level2M, 3, write)
	}
	pt := pd.pts[i]
	if pt == nil {
		return WalkResult{Depth: 3}
	}
	e := &pt[idx1(v)]
	if !e.Has(Present) {
		return WalkResult{Depth: 4}
	}
	return finishWalk(e, Level4K, 4, write)
}

func finishWalk(e *PTE, lvl Level, depth int, write bool) WalkResult {
	w := *e
	if w.Has(Poisoned) {
		return WalkResult{Entry: w.Entry(), Level: lvl, Found: true, Poisoned: true, Depth: depth}
	}
	w |= flagBits(Accessed)
	if write {
		w |= flagBits(Dirty)
	}
	*e = w
	return WalkResult{Entry: w.Entry(), Level: lvl, Found: true, Depth: depth}
}

// SetFlags ORs mask into the leaf entry mapping v. Returns false if unmapped.
func (t *Table) SetFlags(v addr.Virt, mask Flags) bool {
	e, _ := t.entryRef(v)
	if e == nil {
		return false
	}
	e.Set(mask)
	return true
}

// ClearFlags removes mask from the leaf entry mapping v. Returns the prior
// flags and whether v was mapped.
func (t *Table) ClearFlags(v addr.Virt, mask Flags) (Flags, bool) {
	e, _ := t.entryRef(v)
	if e == nil {
		return 0, false
	}
	prior := *e
	*e = prior &^ flagBits(mask)
	return prior.Flags(), true
}

// Remap changes the physical frame of the leaf mapping v (page migration).
// The grain of the existing mapping is preserved; flags other than Accessed
// and Dirty are kept, and Accessed/Dirty are cleared (fresh page, as after a
// migration the kernel re-establishes the mapping). p must be aligned to the
// mapping's grain (ErrBadFrame for a 4KB leaf). Returns the old frame.
func (t *Table) Remap(v addr.Virt, p addr.Phys) (addr.Phys, error) {
	e, lvl := t.entryRef(v)
	if e == nil {
		return 0, fmt.Errorf("pagetable: Remap of unmapped %s", v)
	}
	if lvl == Level2M && p.Base2M() != p {
		return 0, fmt.Errorf("pagetable: Remap 2M to unaligned %s", p)
	}
	if err := checkFrame(p); err != nil {
		return 0, fmt.Errorf("pagetable: Remap of %s: %w", v, err)
	}
	old := e.Frame()
	*e = *e&^(frameMask|flagBits(Accessed|Dirty)) | PTE(p)
	return old, nil
}

// Unmap removes the leaf mapping v at whichever grain it exists, pruning the
// nodes it empties (never the root). Returns the removed entry and its level.
func (t *Table) Unmap(v addr.Virt) (Entry, Level, error) {
	pdpt := t.root[idx4(v)]
	var pd *pdNode
	if pdpt != nil {
		pd = pdpt.pds[idx3(v)]
	}
	if pd == nil {
		return Entry{}, 0, fmt.Errorf("pagetable: Unmap of unmapped %s", v)
	}
	i := idx2(v)
	var old PTE
	var lvl Level
	if e := &pd.ptes[i]; e.Has(Present | Huge) {
		old, lvl = *e, Level2M
		*e = 0
		t.count2M--
		pd.used--
		t.removeSlot(v.Base2M())
	} else {
		pt := pd.pts[i]
		if pt == nil || !pt[idx1(v)].Has(Present) {
			return Entry{}, 0, fmt.Errorf("pagetable: Unmap of unmapped %s", v)
		}
		e := &pt[idx1(v)]
		old, lvl = *e, Level4K
		*e = 0
		t.count4K--
		pd.live[i]--
		if pd.live[i] == 0 {
			pd.pts[i] = nil
			pd.used--
			t.nPT--
			t.removeSlot(v.Base2M())
		}
	}
	if pd.used == 0 {
		pdpt.pds[idx3(v)] = nil
		pdpt.used--
		t.nPD--
		if pdpt.used == 0 {
			t.root[idx4(v)] = nil
			t.nPDPT--
		}
	}
	return old.Entry(), lvl, nil
}

// Split breaks the 2MB leaf mapping v into 512 4KB leaves over the same
// physical frame (THP split). The children inherit the parent's flags minus
// Huge, plus SplitSampled; Accessed and Dirty are cleared on the children so
// post-split scans observe fresh access information.
func (t *Table) Split(v addr.Virt) error {
	hv := v.Base2M()
	pd := t.pd(hv)
	if pd == nil {
		return fmt.Errorf("pagetable: Split of unmapped %s", hv)
	}
	i := idx2(hv)
	e := pd.ptes[i]
	if !e.Has(Present | Huge) {
		return fmt.Errorf("pagetable: Split of non-huge mapping at %s", hv)
	}
	// The frame sits at its own bit positions in the word, so child j's entry
	// is the first child's plus j pages.
	child := e&^flagBits(Huge|Accessed|Dirty) | flagBits(SplitSampled)
	pt := new(ptNode)
	for j := range pt {
		pt[j] = child + PTE(j)<<addr.PageShift4K
	}
	pd.ptes[i] = 0
	pd.pts[i] = pt
	pd.live[i] = uint16(addr.PagesPerHuge)
	t.nPT++
	t.count2M--
	t.count4K += addr.PagesPerHuge
	return nil
}

// Collapse merges 512 4KB leaves back into one 2MB leaf (THP collapse). All
// 512 children must be present and physically contiguous within one aligned
// 2MB frame. The merged entry's Accessed/Dirty are the OR of the children's;
// Poisoned children block collapse (unpoison first).
func (t *Table) Collapse(v addr.Virt) error {
	hv := v.Base2M()
	pd := t.pd(hv)
	if pd == nil {
		return fmt.Errorf("pagetable: Collapse of unmapped %s", hv)
	}
	i := idx2(hv)
	pt := pd.pts[i]
	if pt == nil {
		return fmt.Errorf("pagetable: Collapse of %s: no 4KB mappings", hv)
	}
	first := pt[0]
	base := first.Frame()
	if base.Base2M() != base {
		return fmt.Errorf("pagetable: Collapse of %s: frame %s not 2MB-aligned", hv, base)
	}
	var merged PTE
	for j, e := range pt {
		if !e.Has(Present) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d absent", hv, j)
		}
		if e.Has(Poisoned) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d poisoned", hv, j)
		}
		if e.Frame() != base+addr.Phys(uint64(j)*addr.PageSize4K) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d not contiguous", hv, j)
		}
		merged |= e & flagBits(Accessed|Dirty)
	}
	pd.pts[i] = nil
	pd.live[i] = 0
	t.nPT--
	pd.ptes[i] = first&^flagBits(SplitSampled) | flagBits(Huge) | merged
	t.count2M++
	t.count4K -= addr.PagesPerHuge
	return nil
}

// IsSplit reports whether the 2MB region containing v is currently mapped by
// 4KB leaves created from a split huge page.
func (t *Table) IsSplit(v addr.Virt) bool {
	e, _ := t.entryRef(v)
	return e != nil && e.Has(SplitSampled)
}

// LeafVisitor receives each present leaf entry during a Scan. base is the
// leaf's virtual base address; e points at the live entry, so flag edits
// through it are visible to subsequent walks.
type LeafVisitor func(base addr.Virt, e *PTE, lvl Level)

// Scan visits every present leaf in the table in address order. It sweeps
// the slot index linearly; the visitor must not structurally mutate the
// table (Map/Unmap/Split/Collapse) mid-scan — collect first, mutate after.
func (t *Table) Scan(fn LeafVisitor) {
	t.ScanRange(addr.Range{End: ^addr.Virt(0)}, fn)
}

// ScanRange visits present leaves whose base addresses fall in r: a binary
// search to the PD slot holding r.Start, then a linear sweep to r.End. The
// bounds need not be 2MB-aligned; a split slot they cut through is walked
// only between them.
func (t *Table) ScanRange(r addr.Range, fn LeafVisitor) {
	idx := t.index
	for i := t.slotPos(r.Start.Base2M()); i < len(idx) && idx[i].base < r.End; i++ {
		ref := idx[i]
		slot := idx2(ref.base)
		pt := ref.pd.pts[slot]
		if pt == nil {
			if ref.base >= r.Start {
				fn(ref.base, &ref.pd.ptes[slot], Level2M)
			}
			continue
		}
		// First and one-past-last PT entry whose 4KB base lies in r.
		lo, hi := 0, addr.PagesPerHuge
		if ref.base < r.Start {
			lo = int((uint64(r.Start-ref.base) + addr.PageSize4K - 1) >> addr.PageShift4K)
		}
		if uint64(r.End-ref.base) < addr.PageSize2M {
			hi = int((uint64(r.End-ref.base) + addr.PageSize4K - 1) >> addr.PageShift4K)
		}
		base := ref.base + addr.Virt(uint64(lo)<<addr.PageShift4K)
		ents := pt[lo:hi]
		for j := range ents {
			if e := &ents[j]; e.Has(Present) {
				fn(base, e, Level4K)
			}
			base += addr.Virt(addr.PageSize4K)
		}
	}
}

// ScanHuge visits the base of every 2MB leaf in address order — Scan's
// Level2M visits and nothing else — without entering a PT node: a split
// page costs one pointer test instead of 512 callbacks. The visitor must not
// structurally mutate the table mid-scan.
func (t *Table) ScanHuge(fn func(base addr.Virt)) {
	for _, ref := range t.index {
		if ref.pd.pts[idx2(ref.base)] == nil {
			fn(ref.base)
		}
	}
}

// ScanClear visits every present leaf in address order, clearing mask from
// its flags, and reports the leaf's prior flags to fn. Entries without any
// mask bit set are not written, so a scan over mostly-idle leaves stays
// read-mostly. fn may be nil to clear without observing.
func (t *Table) ScanClear(mask Flags, fn func(base addr.Virt, prior Flags, lvl Level)) {
	m := flagBits(mask)
	t.Scan(func(base addr.Virt, e *PTE, lvl Level) {
		prior := *e
		if prior&m != 0 {
			*e = prior &^ m
		}
		if fn != nil {
			fn(base, prior.Flags(), lvl)
		}
	})
}

// ClearFlagsRange clears mask from every present leaf whose base falls in r
// and returns the number of pages visited. It is the batched form of
// per-page ClearFlags for the engine's restore pass: one sweep instead of
// one radix descent per page.
func (t *Table) ClearFlagsRange(r addr.Range, mask Flags) int {
	m := flagBits(mask)
	visited := 0
	t.ScanRange(r, func(_ addr.Virt, e *PTE, _ Level) {
		if *e&m != 0 {
			*e &^= m
		}
		visited++
	})
	return visited
}

// EntryRef returns a pointer to the live leaf entry mapping v, its level, and
// whether v is mapped. It exists so fault handlers can read and update
// several flag bits with one descent instead of separate
// Lookup/SetFlags/ClearFlags calls.
func (t *Table) EntryRef(v addr.Virt) (*PTE, Level, bool) {
	e, lvl := t.entryRef(v)
	return e, lvl, e != nil
}

// ScanRegions is Scan with a page count that is always 1 and the entry
// decoded into a per-call scratch copy (read-only: edits to it are lost),
// kept because bench/replay.go calls it and times it as the table's cost per
// scanned leaf; in-tree code uses Scan. It sweeps the index itself so that
// number holds one callback per leaf, as Scan's does, not a closure calling a
// closure.
func (t *Table) ScanRegions(fn func(base addr.Virt, pages int, e *Entry, lvl Level)) {
	var scratch Entry
	for _, ref := range t.index {
		slot := idx2(ref.base)
		pt := ref.pd.pts[slot]
		if pt == nil {
			scratch = ref.pd.ptes[slot].Entry()
			fn(ref.base, 1, &scratch, Level2M)
			continue
		}
		for j, e := range pt {
			if e.Has(Present) {
				scratch = e.Entry()
				fn(ref.base+addr.Virt(j)<<addr.PageShift4K, 1, &scratch, Level4K)
			}
		}
	}
}

// RegionCount returns the number of present leaves at either grain.
func (t *Table) RegionCount() int { return t.count4K + t.count2M }

// StateBytes returns the table's resident simulator-state footprint: the
// root, every node below it at its own size, and the slot index. This is the
// numerator of the scaling benchmark's state-bytes-per-simulated-GB metric.
func (t *Table) StateBytes() uint64 {
	return uint64(unsafe.Sizeof(t.root)) +
		uint64(t.nPDPT)*uint64(unsafe.Sizeof(pdptNode{})) +
		uint64(t.nPD)*uint64(unsafe.Sizeof(pdNode{})) +
		uint64(t.nPT)*uint64(unsafe.Sizeof(ptNode{})) +
		uint64(cap(t.index))*uint64(unsafe.Sizeof(regionRef{}))
}
