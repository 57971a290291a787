package pagetable

import (
	"testing"
	"unsafe"

	"thermostat/internal/addr"
)

func mustMapSpan(t *testing.T, pt *Table, reg, pages uint64) {
	t.Helper()
	if err := pt.MapSpan(addr.Virt2M(reg), addr.Phys2M(reg), int(pages), Writable); err != nil {
		t.Fatal(err)
	}
}

// TestMapSpanReads covers the span fallbacks of Lookup, Translate and Walk.
func TestMapSpanReads(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 2, 8)
	if pt.SpanCount() != 1 || pt.SpanPages() != 8 {
		t.Fatalf("spans = %d/%d pages, want 1/8", pt.SpanCount(), pt.SpanPages())
	}
	if pt.Count2M() != 8 {
		t.Fatalf("Count2M = %d, want 8 (span pages included)", pt.Count2M())
	}
	v := addr.Virt2M(5) + addr.Virt(123*addr.PageSize4K)
	e, lvl, ok := pt.Lookup(v)
	if !ok || lvl != Level2M || e.Frame != addr.Phys2M(5) {
		t.Fatalf("Lookup(%s) = %+v, %d, %v", v, e, lvl, ok)
	}
	if !e.Flags.Has(Present|Huge|Writable) || e.Flags.Has(Accessed) {
		t.Fatalf("span entry flags = %b", e.Flags)
	}
	pa, ok := pt.Translate(v)
	if !ok || pa != addr.Phys2M(5)+addr.Phys(123*addr.PageSize4K) {
		t.Fatalf("Translate(%s) = %s, %v", v, pa, ok)
	}
	if _, _, ok := pt.Lookup(addr.Virt2M(1)); ok {
		t.Fatal("Lookup before span start reported mapped")
	}
	if _, _, ok := pt.Lookup(addr.Virt2M(10)); ok {
		t.Fatal("Lookup past span end reported mapped")
	}
	w := pt.Walk(v, true)
	if !w.Found || w.Level != Level2M || w.Depth != spanWalkDepth || w.Poisoned {
		t.Fatalf("Walk over span = %+v", w)
	}
	// The walk set Accessed/Dirty on the span aggregate: every page in the
	// span now reports them (region-grain precision).
	if e, _, _ := pt.Lookup(addr.Virt2M(2)); !e.Flags.Has(Accessed | Dirty) {
		t.Fatalf("span aggregate after write walk = %b", e.Flags)
	}
}

// TestMapSpanOverlap rejects collisions with leaves and other spans.
func TestMapSpanOverlap(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	if err := pt.Map2M(addr.Virt2M(4), addr.Phys2M(100), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.MapSpan(addr.Virt2M(2), addr.Phys2M(2), 4, 0); err == nil {
		t.Fatal("MapSpan over an existing leaf succeeded")
	}
	mustMapSpan(t, pt, 8, 4)
	if err := pt.MapSpan(addr.Virt2M(10), addr.Phys2M(40), 4, 0); err == nil {
		t.Fatal("MapSpan over an existing span succeeded")
	}
	if err := pt.Map2M(addr.Virt2M(9), addr.Phys2M(50), 0); err == nil {
		t.Fatal("Map2M over a span succeeded")
	}
	if err := pt.Map4K(addr.Virt2M(9), addr.Phys4K(999), 0); err == nil {
		t.Fatal("Map4K over a span succeeded")
	}
}

// TestMapSpanAccretion merges adjacent compatible spans into one record.
func TestMapSpanAccretion(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 0, 4)
	mustMapSpan(t, pt, 4, 4)
	if pt.SpanCount() != 1 || pt.SpanPages() != 8 {
		t.Fatalf("adjacent spans not merged: %d spans, %d pages", pt.SpanCount(), pt.SpanPages())
	}
	// Physically discontiguous neighbor stays separate.
	if err := pt.MapSpan(addr.Virt2M(8), addr.Phys2M(100), 2, Writable); err != nil {
		t.Fatal(err)
	}
	if pt.SpanCount() != 2 {
		t.Fatalf("discontiguous span merged: %d spans", pt.SpanCount())
	}
}

// TestCarveOnMutate: page-grain mutators re-split a span page into a radix
// leaf and leave the rest of the span intact.
func TestCarveOnMutate(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 0, 8)
	mid := addr.Virt2M(3)
	if !pt.SetFlags(mid, Poisoned) {
		t.Fatal("SetFlags over span failed")
	}
	if pt.SpanCount() != 2 || pt.SpanPages() != 7 {
		t.Fatalf("after carve: %d spans, %d pages, want 2/7", pt.SpanCount(), pt.SpanPages())
	}
	e, lvl := pt.entryRefRadix(mid)
	if e == nil || lvl != Level2M || !e.Flags.Has(Poisoned) || e.Frame != addr.Phys2M(3) {
		t.Fatalf("carved leaf = %+v, %d", e, lvl)
	}
	if pt.Count2M() != 8 {
		t.Fatalf("Count2M = %d after carve, want 8", pt.Count2M())
	}
	// Split carves first, too.
	if err := pt.Split(addr.Virt2M(6)); err != nil {
		t.Fatal(err)
	}
	if pt.Count4K() != addr.PagesPerHuge || pt.SpanPages() != 6 {
		t.Fatalf("after split: %d 4K leaves, %d span pages", pt.Count4K(), pt.SpanPages())
	}
	// Unmap carves first, too.
	if _, _, err := pt.Unmap(addr.Virt2M(1)); err != nil {
		t.Fatal(err)
	}
	if pt.SpanPages() != 5 {
		t.Fatalf("after unmap: %d span pages, want 5", pt.SpanPages())
	}
	if _, _, ok := pt.Lookup(addr.Virt2M(1)); ok {
		t.Fatal("unmapped span page still resolves")
	}
}

// TestUnmapSpan removes a whole span in one call.
func TestUnmapSpan(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 2, 6)
	if _, _, _, err := pt.UnmapSpan(addr.Virt2M(3)); err == nil {
		t.Fatal("UnmapSpan mid-span succeeded")
	}
	pbase, pages, _, err := pt.UnmapSpan(addr.Virt2M(2))
	if err != nil || pbase != addr.Phys2M(2) || pages != 6 {
		t.Fatalf("UnmapSpan = %s, %d, %v", pbase, pages, err)
	}
	if pt.SpanCount() != 0 || pt.Count2M() != 0 {
		t.Fatalf("span remains after UnmapSpan: %d/%d", pt.SpanCount(), pt.Count2M())
	}
}

// TestReabsorb merges an idle carved leaf back into its neighbors.
func TestReabsorb(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 0, 8)
	mid := addr.Virt2M(3)
	pt.SetFlags(mid, Poisoned) // carve
	if pt.Reabsorb(mid) {
		t.Fatal("Reabsorb of a poisoned leaf succeeded")
	}
	pt.ClearFlags(mid, Poisoned)
	if !pt.Reabsorb(mid) {
		t.Fatal("Reabsorb of clean leaf failed")
	}
	// Bridging merge: left span + page + right span collapse to one record.
	if pt.SpanCount() != 1 || pt.SpanPages() != 8 {
		t.Fatalf("after reabsorb: %d spans, %d pages, want 1/8", pt.SpanCount(), pt.SpanPages())
	}
	if pt.Count2M() != 8 || pt.RegionCount() != 1 {
		t.Fatalf("Count2M=%d RegionCount=%d", pt.Count2M(), pt.RegionCount())
	}
	// A migrated page (discontiguous frame) reabsorbs as its own span.
	pt.Remap(addr.Virt2M(5), addr.Phys2M(200))
	if pt.SpanCount() != 2 {
		t.Fatalf("carve by Remap left %d spans", pt.SpanCount())
	}
	if !pt.Reabsorb(addr.Virt2M(5)) {
		t.Fatal("Reabsorb of migrated leaf failed")
	}
	if pt.SpanCount() != 3 || pt.SpanPages() != 8 {
		t.Fatalf("after migrated reabsorb: %d spans, %d pages, want 3/8", pt.SpanCount(), pt.SpanPages())
	}
}

// TestScanRegionsDense: on a dense table ScanRegions is exactly Scan with
// pages == 1 — the identity the golden-pinned callers rely on.
func TestScanRegionsDense(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 6; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Split(addr.Virt2M(2)); err != nil {
		t.Fatal(err)
	}
	var ref []visit
	pt.Scan(func(b addr.Virt, e *Entry, l Level) { ref = append(ref, visit{b, e, l}) })
	i := 0
	pt.ScanRegions(func(b addr.Virt, pages int, e *Entry, l Level) {
		if pages != 1 {
			t.Fatalf("dense region at %s has %d pages", b, pages)
		}
		w := ref[i]
		if b != w.base || e != w.e || l != w.lvl {
			t.Fatalf("visit %d: got (%s, %p, %d), Scan has (%s, %p, %d)", i, b, e, l, w.base, w.e, w.lvl)
		}
		i++
	})
	if i != len(ref) || pt.RegionCount() != len(ref) {
		t.Fatalf("ScanRegions visited %d, Scan %d, RegionCount %d", i, len(ref), pt.RegionCount())
	}
}

// TestClearFlagsRangeSpans: spans overlapping the range are cleared at
// aggregate grain and counted by overlapping pages.
func TestClearFlagsRangeSpans(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	mustMapSpan(t, pt, 0, 8)
	pt.Walk(addr.Virt2M(0), false)
	r := addr.NewRange(addr.Virt2M(2), 3*addr.PageSize2M)
	if n := pt.ClearFlagsRange(r, Accessed); n != 3 {
		t.Fatalf("visited %d pages, want 3", n)
	}
	if e, _, _ := pt.Lookup(addr.Virt2M(7)); e.Flags.Has(Accessed) {
		t.Fatal("span aggregate still Accessed after overlapping clear")
	}
}

// TestStateBytes: span-held pages cost no per-page state; carving adds it.
func TestStateBytes(t *testing.T) {
	pt := New()
	pt.EnableSpans()
	empty := pt.StateBytes()
	if empty == 0 {
		t.Fatal("empty table reports zero state")
	}
	mustMapSpan(t, pt, 0, 1024)
	spanCost := pt.StateBytes() - empty
	dense := New()
	for i := uint64(0); i < 1024; i++ {
		if err := dense.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	denseCost := dense.StateBytes() - empty
	if spanCost*10 > denseCost {
		t.Fatalf("1024-page span costs %d bytes, dense %d — not sublinear", spanCost, denseCost)
	}
}

// TestStateBytesTracksStructure: the index is counted at cap × ref size, a
// Split+Collapse round trip costs exactly the one PT node while split and
// nothing after, and unmapping everything returns to the pre-map value.
func TestStateBytesTracksStructure(t *testing.T) {
	pt := New()
	empty := pt.StateBytes()
	const n = 300
	for i := uint64(0); i < n; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	mapped := pt.StateBytes()
	// Root, PDPT, PD, and the index.
	want := 3*uint64(unsafe.Sizeof(node{})) + uint64(cap(pt.index))*uint64(unsafe.Sizeof(regionRef{}))
	if mapped != want || cap(pt.index) < n {
		t.Fatalf("StateBytes = %d with index cap %d, want %d", mapped, cap(pt.index), want)
	}
	if err := pt.Split(addr.Virt2M(n / 2)); err != nil {
		t.Fatal(err)
	}
	if got := pt.StateBytes(); got != mapped+uint64(unsafe.Sizeof(node{})) {
		t.Fatalf("split added %d bytes, want one PT node (%d)", got-mapped, unsafe.Sizeof(node{}))
	}
	if err := pt.Collapse(addr.Virt2M(n / 2)); err != nil {
		t.Fatal(err)
	}
	if got := pt.StateBytes(); got != mapped {
		t.Fatalf("StateBytes after split+collapse = %d, before %d", got, mapped)
	}
	// Unmap through a split region too, so the last-4KB-leaf path runs.
	if err := pt.Split(addr.Virt2M(7)); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if i == 7 {
			for j := uint64(0); j < uint64(addr.PagesPerHuge); j++ {
				if _, _, err := pt.Unmap(addr.Virt2M(i) + addr.Virt(j*addr.PageSize4K)); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		if _, _, err := pt.Unmap(addr.Virt2M(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := pt.StateBytes(); got != empty {
		t.Fatalf("StateBytes after unmapping everything = %d, empty table %d", got, empty)
	}
}

// checkSpanInvariants asserts structural health of the hybrid state.
func checkSpanInvariants(t *testing.T, pt *Table, salt uint64) {
	t.Helper()
	pages := 0
	for i := range pt.spans {
		s := &pt.spans[i]
		if s.pages <= 0 {
			t.Fatalf("span %d at %s has %d pages", i, s.vbase, s.pages)
		}
		pages += s.pages
		if i > 0 && pt.spans[i-1].end() > s.vbase {
			t.Fatalf("spans %d/%d overlap or disorder: %s..%s vs %s",
				i-1, i, pt.spans[i-1].vbase, pt.spans[i-1].end(), s.vbase)
		}
		if s.flags.Has(Poisoned) {
			t.Fatalf("span at %s is poisoned", s.vbase)
		}
	}
	if pages != pt.spanPages {
		t.Fatalf("spanPages = %d, spans sum to %d", pt.spanPages, pages)
	}
	checkLeafIndex(t, pt, salt)
}

// FuzzSparseVsDense drives the same randomized operation sequence against a
// hybrid (span-compressed) table and a dense table built over identical
// mappings, asserting after every step that the dense oracle's observable
// state is reproduced: per-page presence, frames, levels, poison and
// non-A/D flags exactly; Accessed/Dirty conservatively (a span walk marks
// the whole region, so the sparse side may over-report but never
// under-report); and the mapping counters exactly.
func FuzzSparseVsDense(f *testing.F) {
	// Walks, poison, split/collapse on one region.
	f.Add([]byte{0, 3, 10, 5, 3, 0, 3, 3, 0, 0, 3, 77, 5, 3, 0, 4, 3, 0})
	// Carve by clearflags, reabsorb, walk the merged span.
	f.Add([]byte{2, 5, 0, 7, 5, 0, 1, 5, 9, 0, 6, 1})
	// Migration carve, unmap, walks at the edges.
	f.Add([]byte{6, 2, 0, 8, 2, 0, 0, 0, 0, 1, 11, 200})
	// Dense-vs-span boundary churn.
	f.Add([]byte{5, 1, 4, 5, 2, 4, 7, 1, 0, 7, 2, 0, 0, 1, 8, 4, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const nRegions = 12
		const maxOps = 200
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		sp := New()
		sp.EnableSpans()
		if err := sp.MapSpan(0, 0, nRegions, Writable); err != nil {
			t.Fatal(err)
		}
		dn := New()
		for i := uint64(0); i < nRegions; i++ {
			if err := dn.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 9
			reg := uint64(data[i+1] % nRegions)
			sub := (uint64(data[i+2]) * 7) % uint64(addr.PagesPerHuge)
			hv := addr.Virt2M(reg)
			cv := hv + addr.Virt(sub*addr.PageSize4K)
			switch op {
			case 0:
				sp.Walk(cv, false)
				dn.Walk(cv, false)
			case 1:
				sp.Walk(cv, true)
				dn.Walk(cv, true)
			case 2:
				sp.ClearFlags(cv, Accessed)
				dn.ClearFlags(cv, Accessed)
			case 3:
				sp.Split(hv)
				dn.Split(hv)
			case 4:
				sp.Collapse(hv)
				dn.Collapse(hv)
			case 5:
				// Toggle poison through EntryRef, the badgertrap path.
				if e, _, ok := sp.EntryRef(cv); ok {
					e.Flags ^= Poisoned
				}
				if e, _, ok := dn.EntryRef(cv); ok {
					e.Flags ^= Poisoned
				}
			case 6:
				sp.Remap(cv, addr.Phys2M(reg+100))
				dn.Remap(cv, addr.Phys2M(reg+100))
			case 7:
				// Reabsorb is representation-only: the dense oracle ignores it.
				sp.Reabsorb(hv)
			case 8:
				sp.Unmap(cv)
				dn.Unmap(cv)
			}
			checkSpanInvariants(t, sp, uint64(i)+uint64(data[i+2]))
			if sp.Count4K() != dn.Count4K() || sp.Count2M() != dn.Count2M() {
				t.Fatalf("op %d: counts 4K %d/%d, 2M %d/%d",
					i/3, sp.Count4K(), dn.Count4K(), sp.Count2M(), dn.Count2M())
			}
			if sp.MappedBytes() != dn.MappedBytes() {
				t.Fatalf("op %d: MappedBytes %d vs %d", i/3, sp.MappedBytes(), dn.MappedBytes())
			}
			for r := uint64(0); r < nRegions; r++ {
				probe := addr.Virt2M(r) + addr.Virt((uint64(i)*13%uint64(addr.PagesPerHuge))*addr.PageSize4K)
				se, slvl, sok := sp.Lookup(probe)
				de, dlvl, dok := dn.Lookup(probe)
				if sok != dok {
					t.Fatalf("op %d: presence of %s differs: %v vs %v", i/3, probe, sok, dok)
				}
				if !sok {
					continue
				}
				if slvl != dlvl || se.Frame != de.Frame {
					t.Fatalf("op %d: %s maps (%s, %d) vs (%s, %d)", i/3, probe, se.Frame, slvl, de.Frame, dlvl)
				}
				spa, _ := sp.Translate(probe)
				dpa, _ := dn.Translate(probe)
				if spa != dpa {
					t.Fatalf("op %d: Translate(%s) %s vs %s", i/3, probe, spa, dpa)
				}
				const ad = Accessed | Dirty
				if se.Flags&^ad != de.Flags&^ad {
					t.Fatalf("op %d: %s flags %b vs %b (non-A/D)", i/3, probe, se.Flags, de.Flags)
				}
				if de.Flags&ad&^se.Flags != 0 {
					t.Fatalf("op %d: %s sparse under-reports A/D: %b vs %b", i/3, probe, se.Flags, de.Flags)
				}
			}
		}
	})
}
