package pagetable

import (
	"slices"
	"testing"

	"thermostat/internal/addr"
)

// visit is one leaf observation during a scan; e points into the table.
type visit struct {
	base addr.Virt
	e    *PTE
	lvl  Level
}

// probeFlag is a flag bit no table code reads or writes: the sweep checks
// set it, clear it through the sweep under test, and see exactly which leaves
// lost it, leaving the table as they found it.
const probeFlag Flags = 1 << 15

// scanRadix is the depth-first radix walk the slot index replaced: the
// reference visit order the index must reproduce (checkLeafIndex) and the
// radix side of BenchmarkPTScan.
func (t *Table) scanRadix(fn LeafVisitor) {
	for i4, pdpt := range t.root {
		if pdpt == nil {
			continue
		}
		for i3, pd := range pdpt.pds {
			if pd == nil {
				continue
			}
			for i2 := range pd.ptes {
				base := addr.Virt(uint64(i4)<<39 | uint64(i3)<<30 | uint64(i2)<<addr.PageShift2M)
				if pd.ptes[i2].Has(Present | Huge) {
					fn(base, &pd.ptes[i2], Level2M)
					continue
				}
				pt := pd.pts[i2]
				if pt == nil {
					continue
				}
				for i1 := range pt {
					if pt[i1].Has(Present) {
						fn(base+addr.Virt(uint64(i1)<<addr.PageShift4K), &pt[i1], Level4K)
					}
				}
			}
		}
	}
}

// radixLeaves returns the reference leaf sequence from the radix walk.
func radixLeaves(pt *Table) []visit {
	var ref []visit
	pt.scanRadix(func(b addr.Virt, e *PTE, l Level) { ref = append(ref, visit{b, e, l}) })
	return ref
}

// checkLeafIndex asserts the slot index reproduces the reference radix walk
// exactly — same leaves, same order, same pointers into storage — holds one
// ref per PD slot with a leaf and no other, that every range sweep and region
// scan over it agrees with a filter over the radix walk, and that the
// per-node counts the tree keeps match its contents (checkTree). salt varies
// the range bounds from one call to the next.
func checkLeafIndex(t *testing.T, pt *Table, salt uint64) {
	t.Helper()
	checkTree(t, pt)
	ref := radixLeaves(pt)
	i := 0
	pt.Scan(func(b addr.Virt, e *PTE, l Level) {
		if i >= len(ref) {
			t.Fatalf("index visit %d beyond radix walk's %d leaves", i, len(ref))
		}
		w := ref[i]
		if b != w.base || e != w.e || l != w.lvl {
			t.Fatalf("index visit %d: got (%s, %p, %d), radix walk has (%s, %p, %d)",
				i, b, e, l, w.base, w.e, w.lvl)
		}
		i++
	})
	if i != len(ref) {
		t.Fatalf("index visited %d leaves, radix walk %d", i, len(ref))
	}
	if got := len(ref); got != pt.count4K+pt.count2M {
		t.Fatalf("scan visited %d leaves, counts say %d", got, pt.count4K+pt.count2M)
	}
	checkSlots(t, pt, ref)
	checkRangeSweeps(t, pt, ref, salt)
	checkRegionScans(t, pt, ref)
}

// checkSlots: the index holds exactly the PD slots the radix walk found
// leaves in, in order, each pointing at its PD node, the slot it derives
// from its base being the one addr.Index names. A slot whose last 4KB leaf
// was unmapped is therefore gone, and back after the next Map4K.
func checkSlots(t *testing.T, pt *Table, ref []visit) {
	t.Helper()
	n := 0
	for k, w := range ref {
		hv := w.base.Base2M()
		if k > 0 && ref[k-1].base.Base2M() == hv {
			continue
		}
		if n >= len(pt.index) {
			t.Fatalf("index has %d slots, radix walk has more (next %s)", len(pt.index), hv)
		}
		r := pt.index[n]
		if r.base != hv || r.pd != pt.pd(hv) || idx2(r.base) != addr.Index(hv, 2) {
			t.Fatalf("index slot %d = {%s %p %d}, want {%s %p %d}",
				n, r.base, r.pd, idx2(r.base), hv, pt.pd(hv), addr.Index(hv, 2))
		}
		n++
	}
	if n != len(pt.index) {
		t.Fatalf("index has %d slots, radix walk found leaves in %d", len(pt.index), n)
	}
}

// checkRangeSweeps compares ScanRange and ClearFlagsRange against a filter
// over the radix walk, on ranges whose bounds are not 2MB- (or even 4KB-)
// aligned and so cut through split regions.
func checkRangeSweeps(t *testing.T, pt *Table, ref []visit, salt uint64) {
	t.Helper()
	const universe = 26 * addr.PageSize2M // the fuzzers map regions 0..23
	for k := uint64(0); k < 3; k++ {
		h := (salt*3 + k + 1) * 0x9e3779b97f4a7c15
		start := addr.Virt(h % universe)
		size := (h >> 32) % (3 * addr.PageSize2M)
		if k == 2 {
			size %= 64 * addr.PageSize4K // a window inside one region
		}
		r := addr.NewRange(start, size)
		var want []visit
		for _, w := range ref {
			if w.base >= r.Start && w.base < r.End {
				want = append(want, w)
			}
		}
		var got []visit
		pt.ScanRange(r, func(b addr.Virt, e *PTE, l Level) { got = append(got, visit{b, e, l}) })
		if !slices.Equal(got, want) {
			t.Fatalf("ScanRange(%s): %d visits, radix filter has %d", r, len(got), len(want))
		}
		// ClearFlagsRange clears the probe bit from exactly the leaves in r.
		for _, w := range ref {
			w.e.Set(probeFlag)
		}
		if n := pt.ClearFlagsRange(r, probeFlag); n != len(want) {
			t.Fatalf("ClearFlagsRange(%s) visited %d pages, want %d leaves", r, n, len(want))
		}
		for _, w := range ref {
			inRange := w.base >= r.Start && w.base < r.End
			if w.e.Has(probeFlag) == inRange {
				t.Fatalf("ClearFlagsRange(%s): leaf %s in range %v, probe still set %v",
					r, w.base, inRange, !inRange)
			}
			w.e.Put(w.e.Flags() &^ probeFlag)
		}
	}
}

// checkRegionScans: ScanRegions visits exactly the radix leaves, each with
// pages == 1 and the leaf's decoded entry, ScanHuge exactly the 2MB ones,
// RegionCount equals the number of visits, and ScanClear visits the same
// sequence once each, reporting prior flags and clearing the mask.
func checkRegionScans(t *testing.T, pt *Table, ref []visit) {
	t.Helper()
	full := 0
	pt.ScanRegions(func(b addr.Virt, pages int, e *Entry, l Level) {
		if pages != 1 {
			t.Fatalf("ScanRegions: leaf %s has %d pages", b, pages)
		}
		if full >= len(ref) {
			t.Fatalf("ScanRegions visit %d beyond radix walk's %d leaves", full, len(ref))
		}
		if w := ref[full]; b != w.base || *e != w.e.Entry() || l != w.lvl {
			t.Fatalf("ScanRegions visit %d: got (%s, %v, %d), radix walk has (%s, %v, %d)",
				full, b, *e, l, w.base, w.e.Entry(), w.lvl)
		}
		full++
	})
	if full != len(ref) {
		t.Fatalf("ScanRegions visited %d regions, radix walk has %d leaves", full, len(ref))
	}
	if pt.RegionCount() != full {
		t.Fatalf("RegionCount = %d, ScanRegions visited %d", pt.RegionCount(), full)
	}
	var huge, wantHuge []addr.Virt
	pt.ScanHuge(func(b addr.Virt) { huge = append(huge, b) })
	for _, w := range ref {
		if w.lvl == Level2M {
			wantHuge = append(wantHuge, w.base)
		}
	}
	if !slices.Equal(huge, wantHuge) || len(huge) != pt.count2M {
		t.Fatalf("ScanHuge visited %v, radix walk has huge leaves %v (count2M %d)", huge, wantHuge, pt.count2M)
	}
	// Every leaf carries the probe bit going in, every visit must report it
	// as prior (a leaf visited twice would not), and the clear takes that bit
	// and no other.
	flags := make([]Flags, len(ref))
	for k, w := range ref {
		flags[k] = w.e.Flags()
		w.e.Set(probeFlag)
	}
	k := 0
	pt.ScanClear(probeFlag, func(b addr.Virt, prior Flags, l Level) {
		if k >= len(ref) || b != ref[k].base || l != ref[k].lvl {
			t.Fatalf("clear visit %d: got (%s, %d), radix walk has %d leaves", k, b, l, len(ref))
		}
		if prior != flags[k]|probeFlag {
			t.Fatalf("clear visit %d at %s: prior %b, want %b", k, b, prior, flags[k]|probeFlag)
		}
		k++
	})
	if k != len(ref) {
		t.Fatalf("clear visited %d leaves, want %d", k, len(ref))
	}
	for k, w := range ref {
		if w.e.Flags() != flags[k] {
			t.Fatalf("after clear %s has flags %b, want %b (only the probe bit gone)", w.base, w.e.Flags(), flags[k])
		}
	}
}

// FuzzLeafIndex drives random interleavings of the structural mutators and
// checks after every operation that the slot index and every sweep over it
// agree with the reference radix walk (checkLeafIndex). Errors from
// individual operations are expected (the fuzzer generates invalid ones) and
// ignored — only index consistency matters.
func FuzzLeafIndex(f *testing.F) {
	// Map2M → Split → Collapse → Unmap on one region.
	f.Add([]byte{0, 1, 0, 3, 1, 0, 4, 1, 0, 2, 1, 0})
	// Scattered 4K maps and unmaps across two regions.
	f.Add([]byte{1, 0, 5, 1, 0, 9, 1, 2, 5, 2, 0, 5, 1, 0, 5, 2, 2, 9})
	// Split without collapse, then unmap children.
	f.Add([]byte{0, 3, 0, 3, 3, 0, 2, 3, 0, 2, 3, 1})
	// Remap at both grains plus an interleaved split.
	f.Add([]byte{0, 2, 0, 5, 2, 0, 3, 2, 0, 5, 2, 7, 1, 4, 0, 5, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxOps = 256
		if len(data) > 3*maxOps {
			data = data[:3*maxOps]
		}
		pt := New()
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 6
			reg := uint64(data[i+1] % 24)
			sub := (uint64(data[i+2]) * 7) % uint64(addr.PagesPerHuge)
			hv := addr.Virt2M(reg)
			cv := hv + addr.Virt(sub*addr.PageSize4K)
			switch op {
			case 0:
				pt.Map2M(hv, addr.Phys2M(reg), Writable)
			case 1:
				pt.Map4K(cv, addr.Phys4K(reg*uint64(addr.PagesPerHuge)+sub), 0)
			case 2:
				pt.Unmap(cv)
			case 3:
				pt.Split(hv)
			case 4:
				pt.Collapse(hv)
			case 5:
				pt.Remap(cv, addr.Phys2M(reg+100))
			}
			checkLeafIndex(t, pt, uint64(i)+uint64(data[i+2]))
		}
	})
}

// TestScanClear clears mask bits in one sweep and reports prior flags.
func TestScanClear(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 4; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	pt.SetFlags(addr.Virt2M(1), Accessed)
	pt.SetFlags(addr.Virt2M(3), Accessed|Dirty)
	var hot []addr.Virt
	pt.ScanClear(Accessed, func(b addr.Virt, prior Flags, lvl Level) {
		if lvl != Level2M {
			t.Fatalf("unexpected level %d at %s", lvl, b)
		}
		if prior.Has(Accessed) {
			hot = append(hot, b)
		}
	})
	if len(hot) != 2 || hot[0] != addr.Virt2M(1) || hot[1] != addr.Virt2M(3) {
		t.Fatalf("hot = %v", hot)
	}
	pt.Scan(func(b addr.Virt, e *PTE, lvl Level) {
		if e.Has(Accessed) {
			t.Fatalf("%s still Accessed after ScanClear", b)
		}
	})
	if e, _, _ := pt.Lookup(addr.Virt2M(3)); !e.Flags.Has(Dirty) {
		t.Fatal("ScanClear(Accessed) dropped Dirty")
	}
}

// TestClearFlagsRange matches the per-page ClearFlags loop it replaces.
func TestClearFlagsRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 3; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
	}
	if err := pt.Split(addr.Virt2M(1)); err != nil {
		t.Fatal(err)
	}
	for j := uint64(0); j < uint64(addr.PagesPerHuge); j += 3 {
		pt.SetFlags(addr.Virt2M(1)+addr.Virt(j*addr.PageSize4K), Poisoned)
	}
	r := addr.NewRange(addr.Virt2M(1), addr.PageSize2M)
	if n := pt.ClearFlagsRange(r, Poisoned); n != addr.PagesPerHuge {
		t.Fatalf("visited %d leaves, want %d", n, addr.PagesPerHuge)
	}
	pt.ScanRange(r, func(b addr.Virt, e *PTE, lvl Level) {
		if e.Has(Poisoned) {
			t.Fatalf("%s still Poisoned", b)
		}
	})
	// Neighbouring huge leaves are untouched and counted one each.
	if n := pt.ClearFlagsRange(addr.NewRange(addr.Virt2M(0), addr.PageSize2M), Accessed); n != 1 {
		t.Fatalf("huge region visited %d leaves, want 1", n)
	}
}

// TestEntryRef returns a pointer to the live entry: Set and Put through it
// are seen by Lookup, and neither disturbs the frame.
func TestEntryRef(t *testing.T) {
	pt := New()
	if err := pt.Map4K(addr.Virt4K(7), addr.Phys4K(3), Writable); err != nil {
		t.Fatal(err)
	}
	e, lvl, ok := pt.EntryRef(addr.Virt4K(7))
	if !ok || lvl != Level4K {
		t.Fatalf("EntryRef = %v, %d, %v", e, lvl, ok)
	}
	e.Set(Poisoned)
	if got, _, _ := pt.Lookup(addr.Virt4K(7)); !got.Flags.Has(Poisoned|Writable|Present) || got.Frame != addr.Phys4K(3) {
		t.Fatalf("after Set(Poisoned) through EntryRef, Lookup = %+v", got)
	}
	if !e.Has(Poisoned|Writable) || e.Has(Dirty) || e.Frame() != addr.Phys4K(3) {
		t.Fatalf("handle reads %v / %s after Set", e.Flags(), e.Frame())
	}
	e.Put(Present | Dirty | probeFlag)
	if got, _, _ := pt.Lookup(addr.Virt4K(7)); got.Flags != Present|Dirty|probeFlag || got.Frame != addr.Phys4K(3) {
		t.Fatalf("after Put through EntryRef, Lookup = %+v", got)
	}
	if _, _, ok := pt.EntryRef(addr.Virt4K(8)); ok {
		t.Fatal("EntryRef of unmapped address reported ok")
	}
}
