package pagetable

// The table this package shipped until the packed-PTE rewrite, kept verbatim
// as the differential oracle (FuzzTableVsRef): one 12 304-byte node type for
// every level — a 16-byte Entry and a child pointer per slot — descended by a
// level loop over addr.Index. Only the type names changed (refTable, refNode,
// refRegion); Flags, Entry, Level and walkResult are the package's own.

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"

	"thermostat/internal/addr"
)

// refVisitor is the old leafVisitor: the entry pointer aims into the node.
type refVisitor func(base addr.Virt, e *Entry, lvl Level)

// refNode is one 512-entry radix table.
type refNode struct {
	entries  [512]Entry
	children [512]*refNode
	// liveLeaves counts present leaf entries in this refNode (PT and PD-huge),
	// so unmap can prune empty nodes.
	liveLeaves int
	// liveChildren counts non-nil children.
	liveChildren int
}

// refRegion locates one PD slot that holds at least one present leaf: either
// a 2MB huge leaf in pd.entries[slot], or a PT refNode at pd.children[slot] with
// one or more present 4KB leaves. base is the slot's 2MB-aligned virtual
// base. Entry pointers derived from a refRegion stay valid for the leaf's
// lifetime because nodes are never reallocated, only unlinked.
type refRegion struct {
	base addr.Virt
	pd   *refNode
	slot int32
}

// refTable is a 4-level page table.
//
// Alongside the radix tree it maintains index, an ordered list of the PD
// slots that hold any leaf. Sweeps (Scan, ScanRange) walk the index linearly
// and expand each slot in place: a slot with no PT refNode under it is one 2MB
// leaf, otherwise the PT refNode is walked for its present 4KB leaves.
// Invariant: index holds exactly one ref per PD slot with at least one
// present leaf, in strictly increasing base order, so a sweep visits leaves
// in the order a depth-first radix walk produces (scanRadix in fuzz_test.go
// is that walk, kept as the fuzz oracle).
// Split and Collapse change what a slot holds, never whether it holds
// something, so they leave the index alone; Map2M/Unmap of a huge leaf and
// the first Map4K into / last Unmap out of a PT refNode insert or remove one ref.
type refTable struct {
	root    *refNode
	count4K int
	count2M int
	index   []refRegion
	// nodes counts allocated radix nodes (root included) for StateBytes.
	nodes int
}

// New returns an empty table.
func newRefTable() *refTable { return &refTable{root: &refNode{}, nodes: 1} }

// slotPos returns the position of the first index ref with base >= b.
func (t *refTable) slotPos(b addr.Virt) int {
	return sort.Search(len(t.index), func(i int) bool { return t.index[i].base >= b })
}

// insertSlot adds one PD slot to the index. Mappings are installed by a
// bump-pointer allocator in practice, so appending at the end is the common
// case; anything else falls back to a binary search and a shift.
func (t *refTable) insertSlot(r refRegion) {
	if n := len(t.index); n == 0 || t.index[n-1].base < r.base {
		t.index = append(t.index, r)
		return
	}
	t.index = slices.Insert(t.index, t.slotPos(r.base), r)
}

// removeSlot drops the PD slot based at b from the index. An index emptied
// by the removal is released, so a fully unmapped table holds no index
// memory.
func (t *refTable) removeSlot(b addr.Virt) {
	pos := t.slotPos(b)
	if pos == len(t.index) || t.index[pos].base != b {
		return
	}
	if len(t.index) == 1 {
		t.index = nil
		return
	}
	// Delete zeroes the vacated tail, so a pruned PD refNode can be collected.
	t.index = slices.Delete(t.index, pos, pos+1)
}

// Count4K returns the number of present 4KB leaf entries.
func (t *refTable) Count4K() int { return t.count4K }

// Count2M returns the number of present 2MB leaf entries.
func (t *refTable) Count2M() int { return t.count2M }

// MappedBytes returns the total bytes mapped.
func (t *refTable) MappedBytes() uint64 {
	return uint64(t.count4K)*addr.PageSize4K + uint64(t.count2M)*addr.PageSize2M
}

// pdNode returns the PD refNode covering v — the refNode whose entries are 2MB
// huge leaves and whose children are PT nodes — allocating the PDPT and PD
// nodes on the way when create is set.
func (t *refTable) pdNode(v addr.Virt, create bool) *refNode {
	n := t.root
	for l := 4; l > 2; l-- {
		i := addr.Index(v, l)
		child := n.children[i]
		if child == nil {
			if !create {
				return nil
			}
			child = &refNode{}
			n.children[i] = child
			n.liveChildren++
			t.nodes++
		}
		n = child
	}
	return n
}

// Map4K installs a 4KB translation v -> p. Fails if v is already mapped at
// either grain.
func (t *refTable) Map4K(v addr.Virt, p addr.Phys, flags Flags) error {
	if e, _, ok := t.Lookup(v); ok {
		return fmt.Errorf("pagetable: %s already mapped to %s", v, e.Frame)
	}
	// Lookup ruled out a huge leaf over v, so the PD slot is empty or holds
	// a PT refNode.
	pd := t.pdNode(v, true)
	slot := addr.Index(v, 2)
	pt := pd.children[slot]
	if pt == nil {
		pt = &refNode{}
		pd.children[slot] = pt
		pd.liveChildren++
		t.nodes++
	}
	pt.entries[addr.Index(v, 1)] = Entry{Frame: p.Base4K(), Flags: flags | Present}
	pt.liveLeaves++
	t.count4K++
	if pt.liveLeaves == 1 {
		t.insertSlot(refRegion{base: v.Base2M(), pd: pd, slot: int32(slot)})
	}
	return nil
}

// Map2M installs a 2MB translation v -> p at the PD level. v and p must be
// 2MB-aligned. Fails if any 4KB page in the range is already mapped.
func (t *refTable) Map2M(v addr.Virt, p addr.Phys, flags Flags) error {
	if v.Base2M() != v {
		return fmt.Errorf("pagetable: Map2M of unaligned virtual %s", v)
	}
	if p.Base2M() != p {
		return fmt.Errorf("pagetable: Map2M of unaligned physical %s", p)
	}
	pd := t.pdNode(v, true)
	i := addr.Index(v, 2)
	if pd.entries[i].Flags.Has(Present) {
		return fmt.Errorf("pagetable: %s already huge-mapped", v)
	}
	if pd.children[i] != nil {
		return fmt.Errorf("pagetable: %s overlaps existing 4KB mappings", v)
	}
	pd.entries[i] = Entry{Frame: p, Flags: flags | Present | Huge}
	pd.liveLeaves++
	t.count2M++
	t.insertSlot(refRegion{base: v, pd: pd, slot: int32(i)})
	return nil
}

// Lookup finds the translation for v without side effects (no Accessed
// update, no poison fault). ok is false if v is unmapped.
func (t *refTable) Lookup(v addr.Virt) (Entry, Level, bool) {
	n := t.root
	for l := 4; l >= 1; l-- {
		i := addr.Index(v, l)
		if l == 2 {
			e := n.entries[i]
			if e.Flags.Has(Present | Huge) {
				return e, Level2M, true
			}
		}
		if l == 1 {
			e := n.entries[i]
			if e.Flags.Has(Present) {
				return e, Level4K, true
			}
			return Entry{}, 0, false
		}
		if n.children[i] == nil {
			return Entry{}, 0, false
		}
		n = n.children[i]
	}
	return Entry{}, 0, false
}

// Translate resolves v to a physical address using Lookup (no side effects).
func (t *refTable) Translate(v addr.Virt) (addr.Phys, bool) {
	e, lvl, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	if lvl == Level2M {
		return e.Frame + addr.Phys(v.Offset2M()), true
	}
	return e.Frame + addr.Phys(v.Offset4K()), true
}

// Walk performs a hardware page walk for v: finds the leaf, sets Accessed
// (and Dirty for writes) unless the entry is poisoned, and reports the walk
// depth. A poisoned leaf reports Poisoned=true and leaves flags untouched —
// the MMU raises the fault before retiring the access.
func (t *refTable) Walk(v addr.Virt, write bool) walkResult {
	n := t.root
	depth := 0
	for l := 4; l >= 1; l-- {
		i := addr.Index(v, l)
		depth++
		if l == 2 && n.entries[i].Flags.Has(Present|Huge) {
			return t.finishWalk(&n.entries[i], Level2M, depth, write)
		}
		if l == 1 {
			if !n.entries[i].Flags.Has(Present) {
				return walkResult{Depth: depth}
			}
			return t.finishWalk(&n.entries[i], Level4K, depth, write)
		}
		if n.children[i] == nil {
			return walkResult{Depth: depth}
		}
		n = n.children[i]
	}
	return walkResult{Depth: depth}
}

func (t *refTable) finishWalk(e *Entry, lvl Level, depth int, write bool) walkResult {
	if e.Flags.Has(Poisoned) {
		return walkResult{Entry: *e, Level: lvl, Found: true, Poisoned: true, Depth: depth}
	}
	e.Flags |= Accessed
	if write {
		e.Flags |= Dirty
	}
	return walkResult{Entry: *e, Level: lvl, Found: true, Depth: depth}
}

// entryRef returns a pointer to the leaf entry mapping v, or nil.
func (t *refTable) entryRef(v addr.Virt) (*Entry, Level) {
	n := t.root
	for l := 4; l >= 1; l-- {
		i := addr.Index(v, l)
		if l == 2 && n.entries[i].Flags.Has(Present|Huge) {
			return &n.entries[i], Level2M
		}
		if l == 1 {
			if n.entries[i].Flags.Has(Present) {
				return &n.entries[i], Level4K
			}
			return nil, 0
		}
		if n.children[i] == nil {
			return nil, 0
		}
		n = n.children[i]
	}
	return nil, 0
}

// SetFlags ORs mask into the leaf entry mapping v. Returns false if unmapped.
func (t *refTable) SetFlags(v addr.Virt, mask Flags) bool {
	e, _ := t.entryRef(v)
	if e == nil {
		return false
	}
	e.Flags |= mask
	return true
}

// ClearFlags removes mask from the leaf entry mapping v. Returns the prior
// flags and whether v was mapped.
func (t *refTable) ClearFlags(v addr.Virt, mask Flags) (Flags, bool) {
	e, _ := t.entryRef(v)
	if e == nil {
		return 0, false
	}
	prior := e.Flags
	e.Flags &^= mask
	return prior, true
}

// Remap changes the physical frame of the leaf mapping v (page migration).
// The grain of the existing mapping is preserved; flags other than Accessed
// and Dirty are kept, and Accessed/Dirty are cleared (fresh page, as after a
// migration the kernel re-establishes the mapping). Returns the old frame.
func (t *refTable) Remap(v addr.Virt, p addr.Phys) (addr.Phys, error) {
	e, lvl := t.entryRef(v)
	if e == nil {
		return 0, fmt.Errorf("pagetable: Remap of unmapped %s", v)
	}
	if lvl == Level2M && p.Base2M() != p {
		return 0, fmt.Errorf("pagetable: Remap 2M to unaligned %s", p)
	}
	old := e.Frame
	e.Frame = p
	e.Flags &^= Accessed | Dirty
	return old, nil
}

// Unmap removes the leaf mapping v at whichever grain it exists. Returns the
// removed entry and its level.
func (t *refTable) Unmap(v addr.Virt) (Entry, Level, error) {
	// Walk down remembering the path so empty nodes can be pruned.
	var path [4]refPruneStep
	n := t.root
	for l := 4; l >= 1; l-- {
		i := addr.Index(v, l)
		path[4-l] = refPruneStep{n, i}
		if l == 2 && n.entries[i].Flags.Has(Present|Huge) {
			e := n.entries[i]
			n.entries[i] = Entry{}
			n.liveLeaves--
			t.count2M--
			t.removeSlot(v.Base2M())
			t.prune(path[:4-l+1])
			return e, Level2M, nil
		}
		if l == 1 {
			if !n.entries[i].Flags.Has(Present) {
				return Entry{}, 0, fmt.Errorf("pagetable: Unmap of unmapped %s", v)
			}
			e := n.entries[i]
			n.entries[i] = Entry{}
			n.liveLeaves--
			t.count4K--
			if n.liveLeaves == 0 {
				t.removeSlot(v.Base2M())
			}
			t.prune(path[:])
			return e, Level4K, nil
		}
		if n.children[i] == nil {
			return Entry{}, 0, fmt.Errorf("pagetable: Unmap of unmapped %s", v)
		}
		n = n.children[i]
	}
	return Entry{}, 0, fmt.Errorf("pagetable: Unmap of unmapped %s", v)
}

type refPruneStep = struct {
	n *refNode
	i int
}

func (t *refTable) prune(path []refPruneStep) {
	// Remove empty nodes bottom-up (never the root).
	for k := len(path) - 1; k >= 1; k-- {
		child := path[k].n
		if child.liveLeaves == 0 && child.liveChildren == 0 {
			parent := path[k-1]
			parent.n.children[parent.i] = nil
			parent.n.liveChildren--
			t.nodes--
		} else {
			break
		}
	}
}

// Split breaks the 2MB leaf mapping v into 512 4KB leaves over the same
// physical frame (THP split). The children inherit the parent's flags minus
// Huge, plus SplitSampled; Accessed and Dirty are cleared on the children so
// post-split scans observe fresh access information.
func (t *refTable) Split(v addr.Virt) error {
	hv := v.Base2M()
	pd := t.pdNode(hv, false)
	if pd == nil {
		return fmt.Errorf("pagetable: Split of unmapped %s", hv)
	}
	i := addr.Index(hv, 2)
	e := pd.entries[i]
	if !e.Flags.Has(Present | Huge) {
		return fmt.Errorf("pagetable: Split of non-huge mapping at %s", hv)
	}
	childFlags := (e.Flags &^ (Huge | Accessed | Dirty)) | SplitSampled
	pt := &refNode{}
	for j := 0; j < addr.PagesPerHuge; j++ {
		pt.entries[j] = Entry{
			Frame: e.Frame + addr.Phys(uint64(j)*addr.PageSize4K),
			Flags: childFlags,
		}
	}
	pt.liveLeaves = addr.PagesPerHuge
	pd.entries[i] = Entry{}
	pd.liveLeaves--
	pd.children[i] = pt
	pd.liveChildren++
	t.nodes++
	t.count2M--
	t.count4K += addr.PagesPerHuge
	return nil
}

// Collapse merges 512 4KB leaves back into one 2MB leaf (THP collapse). All
// 512 children must be present and physically contiguous within one aligned
// 2MB frame. The merged entry's Accessed/Dirty are the OR of the children's;
// Poisoned children block collapse (unpoison first).
func (t *refTable) Collapse(v addr.Virt) error {
	hv := v.Base2M()
	pd := t.pdNode(hv, false)
	if pd == nil {
		return fmt.Errorf("pagetable: Collapse of unmapped %s", hv)
	}
	i := addr.Index(hv, 2)
	pt := pd.children[i]
	if pt == nil {
		return fmt.Errorf("pagetable: Collapse of %s: no 4KB mappings", hv)
	}
	base := pt.entries[0].Frame
	if base.Base2M() != base {
		return fmt.Errorf("pagetable: Collapse of %s: frame %s not 2MB-aligned", hv, base)
	}
	var merged Flags
	for j := 0; j < addr.PagesPerHuge; j++ {
		e := pt.entries[j]
		if !e.Flags.Has(Present) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d absent", hv, j)
		}
		if e.Flags.Has(Poisoned) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d poisoned", hv, j)
		}
		if e.Frame != base+addr.Phys(uint64(j)*addr.PageSize4K) {
			return fmt.Errorf("pagetable: Collapse of %s: child %d not contiguous", hv, j)
		}
		merged |= e.Flags & (Accessed | Dirty)
	}
	parentFlags := (pt.entries[0].Flags &^ SplitSampled) | Huge | merged
	pd.children[i] = nil
	pd.liveChildren--
	t.nodes--
	pd.entries[i] = Entry{Frame: base, Flags: parentFlags}
	pd.liveLeaves++
	t.count2M++
	t.count4K -= addr.PagesPerHuge
	return nil
}

// IsSplit reports whether the 2MB region containing v is currently mapped by
// 4KB leaves created from a split huge page.
func (t *refTable) IsSplit(v addr.Virt) bool {
	e, _, ok := t.Lookup(v)
	return ok && e.Flags.Has(SplitSampled)
}

// Scan visits every present leaf in the table in address order. It sweeps
// the slot index linearly; the visitor must not structurally mutate the
// table (Map/Unmap/Split/Collapse) mid-scan — collect first, mutate after,
// as with the radix walk this replaces.
func (t *refTable) Scan(fn refVisitor) {
	t.ScanRange(addr.Range{End: ^addr.Virt(0)}, fn)
}

// ScanRange visits present leaves whose base addresses fall in r: a binary
// search to the PD slot holding r.Start, then a linear sweep to r.End. The
// bounds need not be 2MB-aligned; a split slot they cut through is walked
// only between them.
func (t *refTable) ScanRange(r addr.Range, fn refVisitor) {
	idx := t.index
	for i := t.slotPos(r.Start.Base2M()); i < len(idx) && idx[i].base < r.End; i++ {
		ref := &idx[i]
		pt := ref.pd.children[ref.slot]
		if pt == nil {
			if ref.base >= r.Start {
				fn(ref.base, &ref.pd.entries[ref.slot], Level2M)
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
		ents := pt.entries[lo:hi]
		for j := range ents {
			if e := &ents[j]; e.Flags&Present != 0 {
				fn(base, e, Level4K)
			}
			base += addr.Virt(addr.PageSize4K)
		}
	}
}

// ScanClear visits every present leaf in address order, clearing mask from
// its flags, and reports the leaf's prior flags to fn. Entries without any
// mask bit set are not written, so a scan over mostly-idle leaves stays
// read-mostly. fn may be nil to clear without observing.
func (t *refTable) ScanClear(mask Flags, fn func(base addr.Virt, prior Flags, lvl Level)) {
	t.Scan(func(base addr.Virt, e *Entry, lvl Level) {
		prior := e.Flags
		if prior&mask != 0 {
			e.Flags = prior &^ mask
		}
		if fn != nil {
			fn(base, prior, lvl)
		}
	})
}

// ClearFlagsRange clears mask from every present leaf whose base falls in r
// and returns the number of pages visited. It is the batched form of
// per-page ClearFlags for the engine's restore pass: one sweep instead of
// one radix descent per page.
func (t *refTable) ClearFlagsRange(r addr.Range, mask Flags) int {
	visited := 0
	t.ScanRange(r, func(_ addr.Virt, e *Entry, _ Level) {
		if e.Flags&mask != 0 {
			e.Flags &^= mask
		}
		visited++
	})
	return visited
}

// EntryRef returns a pointer to the leaf entry mapping v, its level, and
// whether v is mapped. The pointer stays valid until the leaf is unmapped,
// split, or collapsed; mutations through it are visible to later walks. It
// exists so fault handlers can read and update several flag bits with one
// descent instead of separate Lookup/SetFlags/ClearFlags calls.
func (t *refTable) EntryRef(v addr.Virt) (*Entry, Level, bool) {
	e, lvl := t.entryRef(v)
	if e == nil {
		return nil, 0, false
	}
	return e, lvl, true
}

// ScanRegions is Scan with a page count that is always 1, kept because
// bench/replay.go calls it; in-tree code uses Scan.
func (t *refTable) ScanRegions(fn func(base addr.Virt, pages int, e *Entry, lvl Level)) {
	t.Scan(func(base addr.Virt, e *Entry, lvl Level) { fn(base, 1, e, lvl) })
}

// RegionCount returns the number of present leaves at either grain.
func (t *refTable) RegionCount() int { return t.count4K + t.count2M }

// StateBytes returns the table's resident simulator-state footprint: radix
// nodes and the slot index. This is the numerator of the scaling benchmark's
// state-bytes-per-simulated-GB metric.
func (t *refTable) StateBytes() uint64 {
	return uint64(t.nodes)*uint64(unsafe.Sizeof(refNode{})) +
		uint64(cap(t.index))*uint64(unsafe.Sizeof(refRegion{}))
}
