package pagetable

import (
	"errors"
	"testing"
	"testing/quick"
	"unsafe"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

func TestMapLookup4K(t *testing.T) {
	pt := New()
	v, p := addr.Virt4K(100), addr.Phys4K(200)
	if err := pt.Map4K(v, p, Writable); err != nil {
		t.Fatal(err)
	}
	e, lvl, ok := pt.Lookup(v + 17)
	if !ok || lvl != Level4K {
		t.Fatalf("Lookup failed: ok=%v lvl=%v", ok, lvl)
	}
	if e.Frame != p {
		t.Fatalf("frame = %s, want %s", e.Frame, p)
	}
	if !e.Flags.Has(Present | Writable) {
		t.Fatalf("flags = %v", e.Flags)
	}
	if pt.Count4K() != 1 || pt.Count2M() != 0 {
		t.Fatalf("counts = %d/%d", pt.Count4K(), pt.Count2M())
	}
}

func TestMapLookup2M(t *testing.T) {
	pt := New()
	v, p := addr.Virt2M(5), addr.Phys2M(9)
	if err := pt.Map2M(v, p, 0); err != nil {
		t.Fatal(err)
	}
	e, lvl, ok := pt.Lookup(v + addr.Virt(addr.PageSize2M-1))
	if !ok || lvl != Level2M {
		t.Fatalf("Lookup: ok=%v lvl=%v", ok, lvl)
	}
	if !e.Flags.Has(Huge) {
		t.Fatal("missing Huge flag")
	}
	// Translation includes the 2M offset.
	pa, ok := pt.Translate(v + 0x12345)
	if !ok || pa != p+0x12345 {
		t.Fatalf("Translate = %s, want %s", pa, p+0x12345)
	}
}

func TestMapRejectsOverlap(t *testing.T) {
	pt := New()
	v2 := addr.Virt2M(3)
	if err := pt.Map2M(v2, addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(v2+4096, addr.Phys4K(7), 0); err == nil {
		t.Fatal("Map4K under a huge page should fail")
	}
	if err := pt.Map2M(v2, addr.Phys2M(2), 0); err == nil {
		t.Fatal("double Map2M should fail")
	}
	pt2 := New()
	if err := pt2.Map4K(v2+4096, addr.Phys4K(7), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map2M(v2, addr.Phys2M(1), 0); err == nil {
		t.Fatal("Map2M over existing 4K should fail")
	}
}

func TestMapRejectsUnaligned(t *testing.T) {
	pt := New()
	if err := pt.Map2M(addr.Virt(4096), addr.Phys2M(1), 0); err == nil {
		t.Fatal("unaligned virtual should fail")
	}
	if err := pt.Map2M(addr.Virt2M(1), addr.Phys(4096), 0); err == nil {
		t.Fatal("unaligned physical should fail")
	}
}

func TestWalkSetsAccessedAndDirty(t *testing.T) {
	pt := New()
	v := addr.Virt4K(42)
	if err := pt.Map4K(v, addr.Phys4K(1), Writable); err != nil {
		t.Fatal(err)
	}
	r := pt.Walk(v, false)
	if !r.Found || r.Poisoned {
		t.Fatalf("walk result %+v", r)
	}
	if r.Depth != 4 {
		t.Fatalf("4K walk depth = %d, want 4", r.Depth)
	}
	e, _, _ := pt.Lookup(v)
	if !e.Flags.Has(Accessed) || e.Flags.Has(Dirty) {
		t.Fatalf("after read walk flags = %v", e.Flags)
	}
	pt.Walk(v, true)
	e, _, _ = pt.Lookup(v)
	if !e.Flags.Has(Dirty) {
		t.Fatal("write walk did not set Dirty")
	}
}

func TestWalkHugeDepth(t *testing.T) {
	pt := New()
	v := addr.Virt2M(7)
	if err := pt.Map2M(v, addr.Phys2M(3), 0); err != nil {
		t.Fatal(err)
	}
	r := pt.Walk(v+123, false)
	if !r.Found || r.Level != Level2M {
		t.Fatalf("walk %+v", r)
	}
	if r.Depth != 3 {
		t.Fatalf("2M walk depth = %d, want 3", r.Depth)
	}
	// The huge leaf takes Accessed from a read and Dirty from a write, in the
	// result and in the table.
	if e, _, _ := pt.Lookup(v); !r.Entry.Flags.Has(Accessed) || e.Flags != Present|Huge|Accessed {
		t.Fatalf("after a read walk: result flags %b, table flags %b", r.Entry.Flags, e.Flags)
	}
	if r = pt.Walk(v+123, true); r.Entry.Flags != Present|Huge|Accessed|Dirty || r.Entry.Frame != addr.Phys2M(3) {
		t.Fatalf("write walk %+v", r)
	}
}

func TestWalkUnmapped(t *testing.T) {
	pt := New()
	r := pt.Walk(addr.Virt4K(9), false)
	if r.Found {
		t.Fatal("walk of unmapped address reported Found")
	}
}

func TestWalkPoisonedFaultsWithoutAccessed(t *testing.T) {
	pt := New()
	v := addr.Virt4K(11)
	if err := pt.Map4K(v, addr.Phys4K(2), 0); err != nil {
		t.Fatal(err)
	}
	pt.SetFlags(v, Poisoned)
	r := pt.Walk(v, true)
	if !r.Found || !r.Poisoned {
		t.Fatalf("walk %+v", r)
	}
	e, _, _ := pt.Lookup(v)
	if e.Flags.Has(Accessed) || e.Flags.Has(Dirty) {
		t.Fatal("poisoned walk must not set Accessed/Dirty")
	}
}

func TestSetClearFlags(t *testing.T) {
	pt := New()
	v := addr.Virt4K(5)
	if ok := pt.SetFlags(v, Poisoned); ok {
		t.Fatal("SetFlags on unmapped should fail")
	}
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	pt.SetFlags(v, Poisoned)
	prior, ok := pt.ClearFlags(v, Poisoned)
	if !ok || !prior.Has(Poisoned) {
		t.Fatalf("ClearFlags prior=%v ok=%v", prior, ok)
	}
	e, _, _ := pt.Lookup(v)
	if e.Flags.Has(Poisoned) {
		t.Fatal("Poisoned not cleared")
	}
}

func TestUnmapAndPrune(t *testing.T) {
	pt := New()
	v := addr.Virt4K(77)
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	e, lvl, err := pt.Unmap(v)
	if err != nil || lvl != Level4K || e.Frame != addr.Phys4K(1) {
		t.Fatalf("Unmap: %v %v %v", e, lvl, err)
	}
	if pt.Count4K() != 0 {
		t.Fatalf("Count4K = %d", pt.Count4K())
	}
	if _, _, ok := pt.Lookup(v); ok {
		t.Fatal("still mapped after Unmap")
	}
	if _, _, err := pt.Unmap(v); err == nil {
		t.Fatal("double Unmap should fail")
	}
	// After pruning, the root should have no children.
	for i, pdpt := range pt.root {
		if pdpt != nil {
			t.Fatalf("root still has a child at %d after prune", i)
		}
	}
	if pt.nPDPT != 0 || pt.nPD != 0 || pt.nPT != 0 {
		t.Fatalf("node counts after prune: %d/%d/%d", pt.nPDPT, pt.nPD, pt.nPT)
	}
}

func TestSplitPreservesTranslationAndCollapseRestores(t *testing.T) {
	pt := New()
	v, p := addr.Virt2M(4), addr.Phys2M(6)
	if err := pt.Map2M(v, p, Writable); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split(v + 500); err != nil { // any address within the huge page
		t.Fatal(err)
	}
	if pt.Count2M() != 0 || pt.Count4K() != addr.PagesPerHuge {
		t.Fatalf("counts after split: %d/%d", pt.Count2M(), pt.Count4K())
	}
	// Every offset still translates identically.
	for _, off := range []uint64{0, 4096 * 3, 123456, addr.PageSize2M - 1} {
		pa, ok := pt.Translate(v + addr.Virt(off))
		if !ok || pa != p+addr.Phys(off) {
			t.Fatalf("post-split Translate(+%#x) = %s, want %s", off, pa, p+addr.Phys(off))
		}
	}
	if !pt.IsSplit(v + 8192) {
		t.Fatal("IsSplit false after split")
	}
	// Children carry SplitSampled and preserve Writable, clear Accessed.
	e, lvl, _ := pt.Lookup(v + 4096)
	if lvl != Level4K || !e.Flags.Has(SplitSampled|Writable) || e.Flags.Has(Accessed) {
		t.Fatalf("child flags = %v lvl=%v", e.Flags, lvl)
	}

	// Touch one child, then collapse: Accessed should be preserved in merge.
	pt.Walk(v+9000, true)
	if err := pt.Collapse(v); err != nil {
		t.Fatal(err)
	}
	if pt.Count2M() != 1 || pt.Count4K() != 0 {
		t.Fatalf("counts after collapse: %d/%d", pt.Count2M(), pt.Count4K())
	}
	e, lvl, _ = pt.Lookup(v)
	if lvl != Level2M || !e.Flags.Has(Huge|Accessed|Dirty) || e.Flags.Has(SplitSampled) {
		t.Fatalf("merged flags = %v lvl=%v", e.Flags, lvl)
	}
	if e.Frame != p {
		t.Fatalf("merged frame = %s", e.Frame)
	}
}

func TestSplitErrors(t *testing.T) {
	pt := New()
	if err := pt.Split(addr.Virt2M(1)); err == nil {
		t.Fatal("Split of unmapped should fail")
	}
	if err := pt.Map4K(addr.Virt4K(0), addr.Phys4K(0), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split(addr.Virt4K(0)); err == nil {
		t.Fatal("Split of 4K-backed region should fail")
	}
}

func TestCollapseErrors(t *testing.T) {
	pt := New()
	v := addr.Virt2M(2)
	if err := pt.Collapse(v); err == nil {
		t.Fatal("Collapse of unmapped should fail")
	}
	if err := pt.Map2M(v, addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split(v); err != nil {
		t.Fatal(err)
	}
	// Poisoned child blocks collapse.
	pt.SetFlags(v+4096, Poisoned)
	if err := pt.Collapse(v); err == nil {
		t.Fatal("Collapse with poisoned child should fail")
	}
	pt.ClearFlags(v+4096, Poisoned)
	// Non-contiguous child blocks collapse.
	if _, err := pt.Remap(v+8192, addr.Phys4K(99999)); err != nil {
		t.Fatal(err)
	}
	if err := pt.Collapse(v); err == nil {
		t.Fatal("Collapse with migrated child should fail")
	}
}

func TestRemap(t *testing.T) {
	pt := New()
	v := addr.Virt2M(8)
	if err := pt.Map2M(v, addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	pt.Walk(v, true) // set Accessed|Dirty
	old, err := pt.Remap(v, addr.Phys2M(2))
	if err != nil || old != addr.Phys2M(1) {
		t.Fatalf("Remap: old=%s err=%v", old, err)
	}
	e, _, _ := pt.Lookup(v)
	if e.Frame != addr.Phys2M(2) {
		t.Fatalf("frame after remap = %s", e.Frame)
	}
	if e.Flags.Has(Accessed) || e.Flags.Has(Dirty) {
		t.Fatal("Remap should clear Accessed/Dirty")
	}
	if _, err := pt.Remap(v, addr.Phys(4096)); err == nil {
		t.Fatal("Remap 2M to unaligned should fail")
	}
	if _, err := pt.Remap(addr.Virt2M(100), addr.Phys2M(3)); err == nil {
		t.Fatal("Remap of unmapped should fail")
	}
}

// TestRemapRejectsBadFrame: a 4KB leaf refuses a frame that is not
// 4KB-aligned or does not fit bits 12–51 — stored as given it would shift
// every later Translate and overwrite flag bits — and is left as it was.
// Map2M and Map4K refuse a frame beyond bit 51 the same way; Map4K still
// rounds an unaligned address down to its frame.
func TestRemapRejectsBadFrame(t *testing.T) {
	pt := New()
	v := addr.Virt4K(9)
	if err := pt.Map4K(v, addr.Phys4K(5)+0x123, Writable); err != nil {
		t.Fatal(err)
	}
	before, _, _ := pt.Lookup(v)
	if before.Frame != addr.Phys4K(5) {
		t.Fatalf("Map4K stored %s, want the round-down %s", before.Frame, addr.Phys4K(5))
	}
	for _, p := range []addr.Phys{addr.Phys4K(6) + 1, addr.Phys4K(6) + 0x800, 1 << 52, 1<<63 | addr.Phys4K(6)} {
		if _, err := pt.Remap(v, p); !errors.Is(err, errBadFrame) {
			t.Fatalf("Remap to %s: err = %v, want ErrBadFrame", p, err)
		}
		if after, _, _ := pt.Lookup(v); after != before {
			t.Fatalf("refused Remap to %s changed the entry: %+v -> %+v", p, before, after)
		}
	}
	if pa, _ := pt.Translate(v + 0x10); pa != addr.Phys4K(5)+0x10 {
		t.Fatalf("Translate after refused remaps = %s", pa)
	}
	if err := pt.Map2M(addr.Virt2M(3), 1<<52, 0); !errors.Is(err, errBadFrame) {
		t.Fatalf("Map2M beyond bit 51: err = %v, want ErrBadFrame", err)
	}
	if err := pt.Map4K(addr.Virt4K(10), 1<<52, 0); !errors.Is(err, errBadFrame) {
		t.Fatalf("Map4K beyond bit 51: err = %v, want ErrBadFrame", err)
	}
	if pt.RegionCount() != 1 || pt.nPD != 1 {
		t.Fatalf("refused maps left state behind: %d leaves, %d PD nodes", pt.RegionCount(), pt.nPD)
	}
}

// TestPTERoundTrip: every Flags value — all 16 bits, so probeFlag and the
// other bits no table code names — at frame 0, the tier-1 base 1<<44, and the
// last 4KB frame of the 8 x 16 TB tier map survives pack -> unpack, and
// neither half leaks into the other.
func TestPTERoundTrip(t *testing.T) {
	top := addr.Phys(8<<44) - addr.Phys(addr.PageSize4K)
	for _, frame := range []addr.Phys{0, 1 << 44, top, frameMask} {
		if err := checkFrame(frame); err != nil {
			t.Fatalf("frame %s refused: %v", frame, err)
		}
		for f := 0; f <= 0xffff; f++ {
			e := PTE(frame) | flagBits(Flags(f))
			if e.Frame() != frame || e.flags() != Flags(f) || e.Entry() != (Entry{frame, Flags(f)}) {
				t.Fatalf("pack(%s, %#x) = %#x unpacks to (%s, %#x)", frame, f, uint64(e), e.Frame(), e.flags())
			}
			if !e.Has(Flags(f)) || (f != 0xffff && e.Has(0xffff)) {
				t.Fatalf("Has on %#x disagrees with its flags %#x", uint64(e), f)
			}
			e.Put(^Flags(f))
			if e.Frame() != frame || e.flags() != ^Flags(f) {
				t.Fatalf("Put(%#x) on frame %s gives (%s, %#x)", ^Flags(f), frame, e.Frame(), e.flags())
			}
		}
	}
	// Through the table: a tier-1 huge frame and every software flag bit come
	// back from Lookup, Walk and Split's children.
	pt := New()
	soft := ^(Present | Writable | Accessed | Dirty | Huge | Poisoned | SplitSampled)
	v, p := addr.Virt2M(3), addr.Phys(1<<44)+addr.Phys2M(5)
	if err := pt.Map2M(v, p, Writable|soft); err != nil {
		t.Fatal(err)
	}
	if e, _, _ := pt.Lookup(v); e.Frame != p || e.Flags != Present|Huge|Writable|soft {
		t.Fatalf("Lookup = %+v", e)
	}
	if r := pt.Walk(v+0x5000, false); r.Entry.Frame != p || r.Entry.Flags != Present|Huge|Writable|Accessed|soft {
		t.Fatalf("Walk = %+v", r)
	}
	if err := pt.Split(v); err != nil {
		t.Fatal(err)
	}
	last := v + addr.Virt(addr.PageSize2M-addr.PageSize4K)
	if e, _, _ := pt.Lookup(last); e.Frame != p+addr.Phys(addr.PageSize2M-addr.PageSize4K) || e.Flags != Present|Writable|SplitSampled|soft {
		t.Fatalf("last split child = %+v", e)
	}
}

func TestScanVisitsAllLeavesInOrder(t *testing.T) {
	pt := New()
	if err := pt.Map2M(addr.Virt2M(10), addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(addr.Virt4K(3), addr.Phys4K(2), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(addr.Virt2M(999)+4096, addr.Phys4K(3), 0); err != nil {
		t.Fatal(err)
	}
	var bases []addr.Virt
	pt.Scan(func(base addr.Virt, e *PTE, lvl Level) {
		bases = append(bases, base)
	})
	if len(bases) != 3 {
		t.Fatalf("Scan visited %d leaves, want 3", len(bases))
	}
	for i := 1; i < len(bases); i++ {
		if bases[i] <= bases[i-1] {
			t.Fatalf("Scan out of order: %v", bases)
		}
	}
}

func TestScanRange(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 10; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	r := addr.NewRange(addr.Virt2M(3), 4*addr.PageSize2M)
	n := 0
	pt.ScanRange(r, func(base addr.Virt, e *PTE, lvl Level) { n++ })
	if n != 4 {
		t.Fatalf("ScanRange visited %d, want 4", n)
	}
}

func TestScanMutationVisible(t *testing.T) {
	pt := New()
	v := addr.Virt2M(1)
	if err := pt.Map2M(v, addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	pt.Walk(v, false)
	pt.Scan(func(base addr.Virt, e *PTE, lvl Level) {
		e.Put(e.flags() &^ Accessed) // kstaled-style clearing
	})
	e, _, _ := pt.Lookup(v)
	if e.Flags.Has(Accessed) {
		t.Fatal("Scan mutation not visible")
	}
}

// Property: mapping a random mix of 2M and 4K pages, every mapped address
// translates to its expected frame, and counts match the mapping set.
func TestMappingConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pt := New()
		type m struct {
			v    addr.Virt
			p    addr.Phys
			huge bool
		}
		var ms []m
		used2M := map[uint64]bool{}
		n4, n2 := 0, 0
		for i := 0; i < 200; i++ {
			hp := r.Uint64n(1 << 20)
			if used2M[hp] {
				continue
			}
			used2M[hp] = true
			if r.Bool(0.5) {
				v, p := addr.Virt2M(hp), addr.Phys2M(r.Uint64n(1<<20))
				if pt.Map2M(v, p, 0) != nil {
					return false
				}
				ms = append(ms, m{v, p, true})
				n2++
			} else {
				// Map a few scattered 4K pages within the region.
				for _, j := range r.Sample(addr.PagesPerHuge, 3) {
					v := addr.Virt2M(hp) + addr.Virt(uint64(j)*addr.PageSize4K)
					p := addr.Phys4K(r.Uint64n(1 << 30))
					if pt.Map4K(v, p, 0) != nil {
						return false
					}
					ms = append(ms, m{v, p, false})
					n4++
				}
			}
		}
		if pt.Count4K() != n4 || pt.Count2M() != n2 {
			return false
		}
		for _, x := range ms {
			off := addr.Virt(r.Uint64n(addr.PageSize4K))
			pa, ok := pt.Translate(x.v + off)
			if !ok || pa != x.p+addr.Phys(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: split followed by collapse is the identity on translation.
func TestSplitCollapseRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pt := New()
		v := addr.Virt2M(r.Uint64n(1 << 20))
		p := addr.Phys2M(r.Uint64n(1 << 20))
		if pt.Map2M(v, p, Writable) != nil {
			return false
		}
		if pt.Split(v) != nil {
			return false
		}
		if pt.Collapse(v) != nil {
			return false
		}
		e, lvl, ok := pt.Lookup(v)
		return ok && lvl == Level2M && e.Frame == p && e.Flags.Has(Writable|Huge)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWalk4K(b *testing.B) {
	pt := New()
	for i := uint64(0); i < 1024; i++ {
		if err := pt.Map4K(addr.Virt4K(i), addr.Phys4K(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(addr.Virt4K(uint64(i)&1023), false)
	}
}

func BenchmarkWalk2M(b *testing.B) {
	pt := New()
	for i := uint64(0); i < 512; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Walk(addr.Virt2M(uint64(i)&511), false)
	}
}

func BenchmarkSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pt := New()
		if err := pt.Map2M(addr.Virt2M(1), addr.Phys2M(1), 0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := pt.Split(addr.Virt2M(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScanRegionsDense: ScanRegions is exactly Scan with pages == 1 and the
// entry decoded.
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
	pt.Scan(func(b addr.Virt, e *PTE, l Level) { ref = append(ref, visit{b, e, l}) })
	i := 0
	pt.ScanRegions(func(b addr.Virt, pages int, e *Entry, l Level) {
		if pages != 1 {
			t.Fatalf("dense region at %s has %d pages", b, pages)
		}
		w := ref[i]
		if b != w.base || *e != w.e.Entry() || l != w.lvl {
			t.Fatalf("visit %d: got (%s, %v, %d), Scan has (%s, %v, %d)", i, b, *e, l, w.base, w.e.Entry(), w.lvl)
		}
		i++
	})
	if i != len(ref) || pt.RegionCount() != len(ref) {
		t.Fatalf("ScanRegions visited %d, Scan %d, RegionCount %d", i, len(ref), pt.RegionCount())
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
	want := uint64(unsafe.Sizeof(pt.root)+unsafe.Sizeof(pdptNode{})+unsafe.Sizeof(pdNode{})) +
		uint64(cap(pt.index))*uint64(unsafe.Sizeof(regionRef{}))
	if mapped != want || cap(pt.index) < n {
		t.Fatalf("StateBytes = %d with index cap %d, want %d", mapped, cap(pt.index), want)
	}
	if err := pt.Split(addr.Virt2M(n / 2)); err != nil {
		t.Fatal(err)
	}
	if got := pt.StateBytes(); got != mapped+uint64(unsafe.Sizeof(ptNode{})) {
		t.Fatalf("split added %d bytes, want one PT node (%d)", got-mapped, unsafe.Sizeof(ptNode{}))
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
