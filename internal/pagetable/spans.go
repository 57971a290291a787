// Span-compressed sparse mode: Telescope-style region summaries for cold
// address spans.
//
// A span is one record standing for a contiguous run of 2MB huge-page
// mappings whose physical frames are contiguous too — count, aggregate flags
// and a representative base instead of one radix leaf (plus slot-index ref)
// per page. Spans keep the table's state sublinear in footprint: a terabyte
// of cold memory is a handful of span records until something touches it at
// page grain.
//
// The hybrid contract:
//
//   - Read paths (Lookup, Translate, Walk) consult the radix tree first and
//     fall back to the span list; a simulated hardware walk over a span sets
//     Accessed/Dirty on the span's *aggregate* flags — the modeled precision
//     loss of region-grain profiling.
//   - Page-grain mutations (Split, Remap, Unmap, SetFlags, EntryRef — i.e.
//     sampling, poisoning, migration) carve the touched 2MB page out of its
//     span into an ordinary radix leaf first ("re-split on first touch").
//   - Reabsorb merges a clean, unpoisoned, physically-contiguous radix leaf
//     back into the span list once the engine has seen it idle long enough
//     ("collapse after ≥k cold periods" — the engine owns the streak).
//
// Dense tables (EnableSpans never called) take none of these paths: every
// guard is a nil/empty check, so dense behavior and dense goldens are
// byte-identical to the span-free implementation.
package pagetable

import (
	"fmt"
	"sort"
	"unsafe"

	"thermostat/internal/addr"
)

// span is one region summary: pages 2MB mappings starting at vbase, backed
// by physically-contiguous frames starting at pbase, sharing aggregate
// flags (always Present|Huge, never Poisoned — poisoning carves first).
type span struct {
	vbase addr.Virt
	pbase addr.Phys
	pages int
	flags Flags
}

// end returns the first virtual address past the span.
func (s *span) end() addr.Virt { return s.vbase + addr.Virt(uint64(s.pages)*addr.PageSize2M) }

// frameOf returns the 2MB frame backing the span page containing v.
func (s *span) frameOf(v addr.Virt) addr.Phys {
	return s.pbase + addr.Phys(uint64(v.Base2M()-s.vbase))
}

// EnableSpans switches the table into hybrid sparse mode. It only arms the
// span machinery; until MapSpan or Reabsorb installs a span the table
// behaves exactly as a dense one.
func (t *Table) EnableSpans() { t.spansOn = true }

// SpansEnabled reports whether hybrid sparse mode is armed.
func (t *Table) SpansEnabled() bool { return t.spansOn }

// SpanCount returns the number of span records.
func (t *Table) SpanCount() int { return len(t.spans) }

// SpanPages returns the number of 2MB pages held in spans (included in
// Count2M).
func (t *Table) SpanPages() int { return t.spanPages }

// spanIdx returns the index of the span containing v, or -1.
func (t *Table) spanIdx(v addr.Virt) int {
	sp := t.spans
	// First span with vbase > v, then check its predecessor.
	i := sort.Search(len(sp), func(k int) bool { return sp[k].vbase > v })
	if i > 0 && v < sp[i-1].end() {
		return i - 1
	}
	return -1
}

// spanOf returns the span containing v, or nil.
func (t *Table) spanOf(v addr.Virt) *span {
	if i := t.spanIdx(v); i >= 0 {
		return &t.spans[i]
	}
	return nil
}

// spliceSpans replaces t.spans[pos:pos+del] with ins.
func (t *Table) spliceSpans(pos, del int, ins ...span) {
	out := append(t.spans[:pos:pos], ins...)
	out = append(out, t.spans[pos+del:]...)
	t.spans = out
}

// MapSpan installs pages contiguous 2MB translations starting at v -> p as
// one span record. v and p must be 2MB-aligned and the range must not
// overlap any existing mapping (leaf or span). Requires EnableSpans.
func (t *Table) MapSpan(v addr.Virt, p addr.Phys, pages int, flags Flags) error {
	if !t.spansOn {
		return fmt.Errorf("pagetable: MapSpan without EnableSpans")
	}
	if pages <= 0 {
		return fmt.Errorf("pagetable: MapSpan of %d pages", pages)
	}
	if v.Base2M() != v {
		return fmt.Errorf("pagetable: MapSpan of unaligned virtual %s", v)
	}
	if p.Base2M() != p {
		return fmt.Errorf("pagetable: MapSpan of unaligned physical %s", p)
	}
	end := v + addr.Virt(uint64(pages)*addr.PageSize2M)
	// Overlap checks: the slot index covers every radix leaf, and the span
	// list covers every span.
	if pos := t.slotPos(v); pos < len(t.index) && t.index[pos].base < end {
		return fmt.Errorf("pagetable: MapSpan %s overlaps existing leaves at %s", v, t.index[pos].base)
	}
	i := sort.Search(len(t.spans), func(k int) bool { return t.spans[k].vbase > v })
	if i > 0 && v < t.spans[i-1].end() {
		return fmt.Errorf("pagetable: MapSpan %s overlaps span at %s", v, t.spans[i-1].vbase)
	}
	if i < len(t.spans) && t.spans[i].vbase < end {
		return fmt.Errorf("pagetable: MapSpan %s overlaps span at %s", v, t.spans[i].vbase)
	}
	ns := span{vbase: v, pbase: p, pages: pages, flags: flags | Present | Huge}
	t.spliceSpans(i, 0, ns)
	t.spanPages += pages
	t.mergeAround(i)
	return nil
}

// spanMergeable reports whether b directly extends a (virtually and
// physically contiguous, compatible flags). Accessed/Dirty differences OR
// together; any other flag difference blocks the merge.
func spanMergeable(a, b *span) bool {
	return a.end() == b.vbase &&
		a.pbase+addr.Phys(uint64(a.pages)*addr.PageSize2M) == b.pbase &&
		a.flags&^(Accessed|Dirty) == b.flags&^(Accessed|Dirty)
}

// mergeAround coalesces the span at index i with contiguous neighbors.
func (t *Table) mergeAround(i int) {
	if i+1 < len(t.spans) && spanMergeable(&t.spans[i], &t.spans[i+1]) {
		t.spans[i].pages += t.spans[i+1].pages
		t.spans[i].flags |= t.spans[i+1].flags & (Accessed | Dirty)
		t.spliceSpans(i+1, 1)
	}
	if i > 0 && spanMergeable(&t.spans[i-1], &t.spans[i]) {
		t.spans[i-1].pages += t.spans[i].pages
		t.spans[i-1].flags |= t.spans[i].flags & (Accessed | Dirty)
		t.spliceSpans(i, 1)
	}
}

// carve extracts the 2MB page containing v out of its span into an ordinary
// radix leaf (inheriting the span's aggregate flags), shrinking or splitting
// the span around it. Reports whether v was span-mapped.
func (t *Table) carve(v addr.Virt) bool {
	i := t.spanIdx(v)
	if i < 0 {
		return false
	}
	s := t.spans[i]
	hv := v.Base2M()
	frame := s.frameOf(hv)
	off := int(uint64(hv-s.vbase) >> addr.PageShift2M)
	var repl []span
	if off > 0 {
		repl = append(repl, span{vbase: s.vbase, pbase: s.pbase, pages: off, flags: s.flags})
	}
	if off < s.pages-1 {
		repl = append(repl, span{
			vbase: hv + addr.Virt(addr.PageSize2M),
			pbase: frame + addr.Phys(addr.PageSize2M),
			pages: s.pages - 1 - off,
			flags: s.flags,
		})
	}
	t.spliceSpans(i, 1, repl...)
	t.spanPages--
	if err := t.Map2M(hv, frame, s.flags&^(Present|Huge)); err != nil {
		// The range was just released by the span; a mapping conflict here
		// means the no-overlap invariant broke earlier.
		panic(fmt.Sprintf("pagetable: carve %s: %v", hv, err))
	}
	return true
}

// UnmapSpan removes the whole span starting exactly at v and returns its
// backing frame base, page count and flags — the bulk munmap path.
func (t *Table) UnmapSpan(v addr.Virt) (addr.Phys, int, Flags, error) {
	i := t.spanIdx(v)
	if i < 0 || t.spans[i].vbase != v {
		return 0, 0, 0, fmt.Errorf("pagetable: UnmapSpan of %s: no span starts there", v)
	}
	s := t.spans[i]
	t.spliceSpans(i, 1)
	t.spanPages -= s.pages
	return s.pbase, s.pages, s.flags, nil
}

// SpanRun is one contiguous run of span pages removed by UnmapSpansRange.
type SpanRun struct {
	Vbase addr.Virt
	Pbase addr.Phys
	Pages int
}

// UnmapSpansRange removes every span page whose address falls in r and
// returns the removed runs in address order. Spans straddling a range
// boundary are trimmed, not carved: the remnants outside r stay spans. This
// is the bulk-munmap path — accretion can merge spans across region
// boundaries, so a region teardown must be able to take just its slice.
func (t *Table) UnmapSpansRange(r addr.Range) []SpanRun {
	if len(t.spans) == 0 {
		return nil
	}
	var runs []SpanRun
	sp := t.spans
	j := sort.Search(len(sp), func(k int) bool { return sp[k].end() > r.Start })
	for j < len(t.spans) && t.spans[j].vbase < r.End {
		s := t.spans[j]
		// Same base-in-range semantics as the leaf scans: a span page is
		// taken when its 2MB base falls in r, even if the page extends past
		// r.End — so both bounds round up to page grain.
		lo, hi := s.vbase, s.end()
		if lo < r.Start {
			lo = (r.Start + addr.Virt(addr.PageSize2M-1)).Base2M()
		}
		if end := (r.End + addr.Virt(addr.PageSize2M-1)).Base2M(); hi > end {
			hi = end
		}
		cut := int(uint64(hi-lo) >> addr.PageShift2M)
		if cut <= 0 {
			j++
			continue
		}
		runs = append(runs, SpanRun{Vbase: lo, Pbase: s.frameOf(lo), Pages: cut})
		var repl []span
		if s.vbase < lo {
			repl = append(repl, span{vbase: s.vbase, pbase: s.pbase,
				pages: int(uint64(lo-s.vbase) >> addr.PageShift2M), flags: s.flags})
		}
		if hi < s.end() {
			repl = append(repl, span{vbase: hi, pbase: s.frameOf(hi),
				pages: int(uint64(s.end()-hi) >> addr.PageShift2M), flags: s.flags})
		}
		t.spliceSpans(j, 1, repl...)
		t.spanPages -= cut
		j += len(repl)
	}
	return runs
}

// Reabsorb merges the 2MB radix leaf at v back into the span list: the leaf
// must be huge, present and unpoisoned. It joins an adjacent span when
// virtually and physically contiguous, or starts a fresh single-page span
// that later reabsorptions can extend. Reports whether the leaf moved.
//
// Callers decide *when* a page is cold enough to collapse (the engine's
// ≥k-idle-periods rule); Reabsorb only performs the representation change.
func (t *Table) Reabsorb(v addr.Virt) bool {
	if !t.spansOn {
		return false
	}
	hv := v.Base2M()
	e, lvl := t.entryRefRadix(hv)
	if e == nil || lvl != Level2M || e.Flags.Has(Poisoned) {
		return false
	}
	flags := e.Flags
	frame := e.Frame
	if _, _, err := t.Unmap(hv); err != nil {
		return false
	}
	i := sort.Search(len(t.spans), func(k int) bool { return t.spans[k].vbase > hv })
	t.spliceSpans(i, 0, span{vbase: hv, pbase: frame, pages: 1, flags: flags})
	t.spanPages++
	t.mergeAround(i)
	return true
}

// lookupSpan resolves v against the span list, synthesizing the 2MB leaf
// entry a dense table would hold for it.
func (t *Table) lookupSpan(v addr.Virt) (Entry, Level, bool) {
	s := t.spanOf(v)
	if s == nil {
		return Entry{}, 0, false
	}
	return Entry{Frame: s.frameOf(v), Flags: s.flags}, Level2M, true
}

// spanWalkDepth is the page-walk depth of a dense 2MB translation (PML4 →
// PDPT → PD-huge); a span hit models the same hardware walk over the
// compressed representation.
const spanWalkDepth = 3

// walkSpan performs the hardware-walk side effects for a span page: set
// Accessed (and Dirty for writes) on the aggregate flags. Spans are never
// poisoned, so the walk always retires.
func (t *Table) walkSpan(v addr.Virt, write bool) (WalkResult, bool) {
	s := t.spanOf(v)
	if s == nil {
		return WalkResult{}, false
	}
	s.flags |= Accessed
	if write {
		s.flags |= Dirty
	}
	return WalkResult{
		Entry: Entry{Frame: s.frameOf(v), Flags: s.flags},
		Level: Level2M, Found: true, Depth: spanWalkDepth,
	}, true
}

// RegionVisitor receives each mapped region during a hybrid scan: page-grain
// leaves arrive with pages == 1 and a live entry pointer; spans arrive with
// pages > 1 (or 1, for a not-yet-merged reabsorbed page) and a synthesized
// entry whose flag mutations write back to the span's aggregate. base is the
// region's first virtual address.
type RegionVisitor func(base addr.Virt, pages int, e *Entry, lvl Level)

// ScanRegions visits every mapped region — radix leaves and spans merged in
// address order. On a dense table it is exactly Scan with pages == 1. The
// visitor must not structurally mutate the table.
func (t *Table) ScanRegions(fn RegionVisitor) {
	idx, sp := t.index, t.spans
	i, j := 0, 0
	for i < len(idx) || j < len(sp) {
		if i == len(idx) || (j < len(sp) && sp[j].vbase < idx[i].base) {
			s := &sp[j]
			tmp := Entry{Frame: s.pbase, Flags: s.flags}
			fn(s.vbase, s.pages, &tmp, Level2M)
			s.flags = tmp.Flags
			j++
			continue
		}
		ref := &idx[i]
		i++
		pt := ref.pd.children[ref.slot]
		if pt == nil {
			fn(ref.base, 1, &ref.pd.entries[ref.slot], Level2M)
			continue
		}
		base := ref.base
		for c := range pt.entries {
			if e := &pt.entries[c]; e.Flags&Present != 0 {
				fn(base, 1, e, Level4K)
			}
			base += addr.Virt(addr.PageSize4K)
		}
	}
}

// RegionCount returns the number of regions ScanRegions visits.
func (t *Table) RegionCount() int { return t.count4K + t.count2M + len(t.spans) }

// ScanRegionsRange visits mapped regions whose base addresses fall in r (the
// region-grain analogue of ScanRange; a span overlapping r but based before
// it is not visited).
func (t *Table) ScanRegionsRange(r addr.Range, fn RegionVisitor) {
	t.ScanRange(r, func(base addr.Virt, e *Entry, lvl Level) { fn(base, 1, e, lvl) })
	sp := t.spans
	for j := sort.Search(len(sp), func(k int) bool { return sp[k].vbase >= r.Start }); j < len(sp) && sp[j].vbase < r.End; j++ {
		s := &sp[j]
		tmp := Entry{Frame: s.pbase, Flags: s.flags}
		fn(s.vbase, s.pages, &tmp, Level2M)
		s.flags = tmp.Flags
	}
}

// ScanClearRegions visits every mapped region in address order, clearing
// mask from its flags (span aggregates included) and reporting the prior
// flags. On a dense table it is exactly ScanClear with pages == 1. Flags
// without any mask bit are not written, so a sweep over mostly-idle regions
// stays read-mostly.
func (t *Table) ScanClearRegions(mask Flags, fn func(base addr.Virt, pages int, prior Flags, lvl Level)) {
	t.ScanRegions(func(base addr.Virt, pages int, e *Entry, lvl Level) {
		prior := e.Flags
		if prior&mask != 0 {
			e.Flags = prior &^ mask
		}
		if fn != nil {
			fn(base, pages, prior, lvl)
		}
	})
}

// StateBytes returns the table's resident simulator-state footprint: radix
// nodes, the slot index and the span list. This is the numerator of the
// scaling benchmark's state-bytes-per-simulated-GB metric.
func (t *Table) StateBytes() uint64 {
	return uint64(t.nodes)*uint64(unsafe.Sizeof(node{})) +
		uint64(cap(t.index))*uint64(unsafe.Sizeof(regionRef{})) +
		uint64(cap(t.spans))*uint64(unsafe.Sizeof(span{}))
}
