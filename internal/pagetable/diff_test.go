package pagetable

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

// leaf is one decoded leaf observation, comparable between the two tables.
type leaf struct {
	base addr.Virt
	e    Entry
	lvl  Level
}

// diffOpBytes is the length of one encoded operation; diffMaxOps bounds a
// program, since every operation is followed by a full sweep of both tables.
const (
	diffOpBytes = 4
	diffMaxOps  = 192
)

// diffMasks are the flag sets SetFlags/ClearFlags/ClearFlagsRange/ScanClear
// draw from: the bits walks and scanners use, and software bits on both sides
// of the frame field. The structural bits (Present, Huge, SplitSampled) are
// left to the table.
var diffMasks = [8]Flags{
	Accessed, Dirty, Accessed | Dirty, Poisoned,
	probeFlag, Writable | 1<<12, 1<<7 | 1<<11, Accessed | Poisoned | probeFlag,
}

// diffTiers are the physical bands frames come from: tier 0, the tier-1 base,
// the last 64 huge frames of the 8 x 16 TB map, and tier 3.
var diffTiers = [4]addr.Phys{0, 1 << 44, 8<<44 - 64<<addr.PageShift2M, 3 << 44}

// runTableDiff decodes prog into operations, applies each to a Table and to
// the reference table, and fails on the first different result, error text,
// count, or leaf sequence (every leaf of both tables, after every operation).
//
// An operation is {op, reg, sub, arg}. reg%24 names a 2MB region: regions
// 0–7 are pages 0–7, 8–15 are pages 508–515 (across the first PD boundary),
// 16–23 sit under a second PML4 slot. The child is sub | arg>>7<<8 (0–511).
// arg also picks the tier band (bits 4–5), one of two huge frames per region
// in it (bit 6), the mapping flags (bits 0–3: Writable, Accessed|Dirty,
// software bits 7 and 12, software bits 11 and 15), and the mask (bits 0–2,
// diffMasks). op%13: Map2M, Map4K (bit 3: an unaligned address, rounded
// down), Unmap, Split, Collapse, Remap (bit 2: a huge frame; else the child's
// own frame in the chosen huge frame, bit 1: its neighbour's; bit 3:
// misaligned by half a page), Walk read, Walk write, SetFlags, ClearFlags,
// ClearFlagsRange (from the child for sub pages and one region more),
// ScanClear, and a Put through EntryRef of the flags under the mask.
//
// A misaligned Remap is the one place the tables differ by design: the
// reference stores the frame as given, so only the Table sees it, must name
// errBadFrame (or report the address unmapped, or a huge leaf's misalignment)
// and must leave every leaf as it was.
func runTableDiff(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) > diffMaxOps*diffOpBytes {
		prog = prog[:diffMaxOps*diffOpBytes]
	}
	pt, ref := New(), newRefTable()
	for n := 0; len(prog) >= diffOpBytes; n, prog = n+1, prog[diffOpBytes:] {
		op, reg, arg := prog[0]%13, uint64(prog[1]%24), prog[3]
		child := uint64(prog[2]) | uint64(arg>>7)<<8
		page := reg
		switch reg / 8 {
		case 1:
			page = 508 + reg%8
		case 2:
			page = 1<<18 + 1<<9 + reg%8
		}
		hv := addr.Virt2M(page)
		cv := hv + addr.Virt(child<<addr.PageShift4K)
		huge := diffTiers[arg>>4&3] + addr.Phys2M(reg+24*uint64(arg>>6&1))
		var flags Flags
		for i, f := range [4]Flags{Writable, Accessed | Dirty, 1<<7 | 1<<12, 1<<11 | probeFlag} {
			if arg>>i&1 != 0 {
				flags |= f
			}
		}
		mask := diffMasks[arg&7]
		fail := func(format string, args ...any) {
			t.Helper()
			t.Errorf("op %d {%d reg %d child %d arg %#02x}:", n, op, reg, child, arg)
			t.Fatalf(format, args...)
		}
		sameErr := func(got, want error) {
			t.Helper()
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				fail("error %v, reference %v", got, want)
			}
		}
		switch op {
		case 0:
			sameErr(pt.Map2M(hv, huge, flags), ref.Map2M(hv, huge, flags))
		case 1:
			p := huge + addr.Phys(child<<addr.PageShift4K) + addr.Phys(arg&8)<<5
			sameErr(pt.Map4K(cv, p, flags), ref.Map4K(cv, p, flags))
		case 2:
			ge, gl, gerr := pt.Unmap(cv)
			we, wl, werr := ref.Unmap(cv)
			sameErr(gerr, werr)
			if ge != we || gl != wl {
				fail("Unmap = %+v level %d, reference %+v level %d", ge, gl, we, wl)
			}
		case 3:
			sameErr(pt.Split(cv), ref.Split(cv))
		case 4:
			sameErr(pt.Collapse(cv), ref.Collapse(cv))
		case 5:
			p := huge
			if arg&4 == 0 {
				p += addr.Phys((child + uint64(arg>>1&1)) % uint64(addr.PagesPerHuge) << addr.PageShift4K)
			}
			if arg&8 != 0 {
				p += addr.Phys(addr.PageSize4K / 2)
				before := tableLeaves(pt)
				_, lvl, mapped := pt.Lookup(cv)
				_, err := pt.Remap(cv, p)
				if err == nil || (mapped && lvl == Level4K && !errors.Is(err, errBadFrame)) {
					fail("Remap to misaligned %s: err = %v", p, err)
				}
				if after := tableLeaves(pt); !slices.Equal(before, after) {
					fail("refused Remap to %s changed the table", p)
				}
				continue
			}
			gold, gerr := pt.Remap(cv, p)
			wold, werr := ref.Remap(cv, p)
			sameErr(gerr, werr)
			if gold != wold {
				fail("Remap returned old frame %s, reference %s", gold, wold)
			}
		case 6, 7:
			v := cv + addr.Virt(arg)
			if got, want := pt.Walk(v, op == 7), ref.Walk(v, op == 7); got != want {
				fail("Walk(%s) = %+v, reference %+v", v, got, want)
			}
		case 8:
			if got, want := pt.SetFlags(cv, mask), ref.SetFlags(cv, mask); got != want {
				fail("SetFlags = %v, reference %v", got, want)
			}
		case 9:
			gp, gok := pt.ClearFlags(cv, mask)
			wp, wok := ref.ClearFlags(cv, mask)
			if gp != wp || gok != wok {
				fail("ClearFlags = %b %v, reference %b %v", gp, gok, wp, wok)
			}
		case 10:
			r := addr.NewRange(cv, (uint64(prog[2])+uint64(addr.PagesPerHuge))<<addr.PageShift4K)
			if got, want := pt.ClearFlagsRange(r, mask), ref.ClearFlagsRange(r, mask); got != want {
				fail("ClearFlagsRange(%s) visited %d, reference %d", r, got, want)
			}
		case 11:
			var got, want []leaf
			pt.ScanClear(mask, func(b addr.Virt, prior Flags, l Level) { got = append(got, leaf{b, Entry{Flags: prior}, l}) })
			ref.ScanClear(mask, func(b addr.Virt, prior Flags, l Level) { want = append(want, leaf{b, Entry{Flags: prior}, l}) })
			if !slices.Equal(got, want) {
				fail("ScanClear reported %d priors, reference %d (or different ones)", len(got), len(want))
			}
		case 12:
			ge, gl, gok := pt.EntryRef(cv)
			we, wl, wok := ref.EntryRef(cv)
			if gok != wok || gl != wl {
				fail("EntryRef = level %d %v, reference level %d %v", gl, gok, wl, wok)
			}
			if gok {
				if ge.Entry() != *we || ge.Has(mask) != we.Flags.Has(mask) {
					fail("EntryRef reads %+v, reference %+v", ge.Entry(), *we)
				}
				ge.Put(ge.flags() ^ mask)
				we.Flags ^= mask
			}
		}
		gp, gok := pt.Translate(cv + 5)
		if wp, wok := ref.Translate(cv + 5); gp != wp || gok != wok {
			fail("Translate(%s) = %s %v, reference %s %v", cv+5, gp, gok, wp, wok)
		}
		if pt.Count4K() != ref.Count4K() || pt.Count2M() != ref.Count2M() || pt.IsSplit(cv) != ref.IsSplit(cv) {
			fail("counts %d/%d split %v, reference %d/%d split %v",
				pt.Count4K(), pt.Count2M(), pt.IsSplit(cv), ref.Count4K(), ref.Count2M(), ref.IsSplit(cv))
		}
		got, want := tableLeaves(pt), refLeaves(ref)
		if !slices.Equal(got, want) {
			k := 0
			for k < len(got) && k < len(want) && got[k] == want[k] {
				k++
			}
			fail("%d leaves, reference %d; they differ from leaf %d on", len(got), len(want), k)
		}
	}
	checkTree(t, pt)
}

func tableLeaves(pt *Table) []leaf {
	var out []leaf
	pt.Scan(func(b addr.Virt, e *PTE, l Level) { out = append(out, leaf{b, e.Entry(), l}) })
	return out
}

func refLeaves(ref *refTable) []leaf {
	var out []leaf
	ref.Scan(func(b addr.Virt, e *Entry, l Level) { out = append(out, leaf{b, *e, l}) })
	return out
}

// FuzzTableVsRef runs runTableDiff on the fuzzer's program; seeds are in
// testdata/fuzz/FuzzTableVsRef.
func FuzzTableVsRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runTableDiff(t, data) })
}

// TestTableMatchesRef runs seeded random programs through runTableDiff, the
// region byte narrowed to two regions per bank so that operations keep
// meeting each other's pages.
func TestTableMatchesRef(t *testing.T) {
	progs := 120
	if testing.Short() {
		progs = 30
	}
	for seed := 1; seed <= progs; seed++ {
		r := rng.New(uint64(seed))
		prog := make([]byte, diffMaxOps*diffOpBytes)
		for i := range prog {
			prog[i] = byte(r.Uint64n(256))
		}
		for i := 1; i < len(prog); i += diffOpBytes {
			prog[i] = prog[i]%3*8 + prog[i]>>7
		}
		runTableDiff(t, prog)
	}
}

// checkTree walks the radix tree and asserts every count the table keeps
// beside it: used per PDPT and PD node, live 4KB leaves per PT node, the leaf
// totals, and the node counts StateBytes multiplies. It returns the node
// counts it found.
func checkTree(t *testing.T, pt *Table) (nPDPT, nPD, nPT int) {
	t.Helper()
	n4K, n2M := 0, 0
	for i4, pdpt := range pt.root {
		if pdpt == nil {
			continue
		}
		nPDPT++
		pds := 0
		for i3, pd := range pdpt.pds {
			if pd == nil {
				continue
			}
			nPD++
			pds++
			used := 0
			for i2 := range pd.ptes {
				huge, sub := pd.ptes[i2] != 0, pd.pts[i2]
				if huge && (sub != nil || !pd.ptes[i2].Has(Present|Huge)) {
					t.Fatalf("PD %d/%d slot %d: huge word %#x beside PT node %p", i4, i3, i2, uint64(pd.ptes[i2]), sub)
				}
				live := 0
				if sub != nil {
					nPT++
					for _, e := range sub {
						if e.Has(Present) {
							live++
						} else if e != 0 {
							t.Fatalf("PD %d/%d slot %d holds a non-present, non-zero PTE %#x", i4, i3, i2, uint64(e))
						}
					}
					if live == 0 {
						t.Fatalf("PD %d/%d slot %d keeps an empty PT node", i4, i3, i2)
					}
				}
				if int(pd.live[i2]) != live {
					t.Fatalf("PD %d/%d slot %d: live = %d, PT node holds %d", i4, i3, i2, pd.live[i2], live)
				}
				n4K += live
				if huge {
					n2M++
				}
				if huge || sub != nil {
					used++
				}
			}
			if used == 0 || pd.used != used {
				t.Fatalf("PD %d/%d: used = %d, %d slots occupied", i4, i3, pd.used, used)
			}
		}
		if pds == 0 || pdpt.used != pds {
			t.Fatalf("PDPT %d: used = %d, %d PD nodes linked", i4, pdpt.used, pds)
		}
	}
	if n4K != pt.count4K || n2M != pt.count2M {
		t.Fatalf("tree holds %d/%d leaves, counts say %d/%d", n4K, n2M, pt.count4K, pt.count2M)
	}
	if nPDPT != pt.nPDPT || nPD != pt.nPD || nPT != pt.nPT {
		t.Fatalf("tree holds %d/%d/%d nodes, counts say %d/%d/%d", nPDPT, nPD, nPT, pt.nPDPT, pt.nPD, pt.nPT)
	}
	return nPDPT, nPD, nPT
}

// TestPTNodeIsOnePage: what a split huge page costs is a 4096-byte array of
// words — no pointer for the collector to scan, no header pushing it into the
// next malloc size class — and the index ref is two words.
func TestPTNodeIsOnePage(t *testing.T) {
	if got := unsafe.Sizeof(ptNode{}); got != 4096 {
		t.Fatalf("PT node is %d bytes, want 4096", got)
	}
	if ty := reflect.TypeOf(ptNode{}); ty.Kind() != reflect.Array || ty.Elem().Kind() != reflect.Uint64 {
		t.Fatalf("PT node is %v, want an array of words", ty)
	}
	if got := unsafe.Sizeof(regionRef{}); got != 16 {
		t.Fatalf("index ref is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(pdNode{}); got > 9472 {
		t.Fatalf("PD node is %d bytes, beyond the 9472-byte size class", got)
	}
}

// TestStateBytesCountsEveryNode: after a random operation sequence that
// leaves split pages, partial PT nodes and several PD nodes behind,
// StateBytes is the root plus every node found by walking the tree at its
// kind's size plus the index at cap x ref size; unmapping everything returns
// it to the empty table's value.
func TestStateBytesCountsEveryNode(t *testing.T) {
	pt := New()
	empty := pt.StateBytes()
	if empty != uint64(unsafe.Sizeof(pt.root)) {
		t.Fatalf("empty table StateBytes = %d, want the root's %d", empty, unsafe.Sizeof(pt.root))
	}
	r := rng.New(11)
	for i := 0; i < 400; i++ {
		page := r.Uint64n(40)*67 + r.Uint64n(2)<<18 // ≈ 6 PD nodes under 2 PDPT nodes
		hv := addr.Virt2M(page)
		cv := hv + addr.Virt(r.Uint64n(uint64(addr.PagesPerHuge))<<addr.PageShift4K)
		switch r.Uint64n(6) {
		case 0, 1:
			pt.Map2M(hv, addr.Phys2M(page), Writable)
		case 2:
			pt.Map4K(cv, addr.Phys4K(page), 0)
		case 3:
			pt.Split(hv)
		case 4:
			pt.Collapse(hv)
		case 5:
			pt.Unmap(cv)
		}
	}
	nPDPT, nPD, nPT := checkTree(t, pt)
	if nPDPT < 2 || nPD < 4 || nPT < 4 || pt.count2M == 0 {
		t.Fatalf("sequence left %d/%d/%d nodes and %d huge leaves; want some of each", nPDPT, nPD, nPT, pt.count2M)
	}
	want := uint64(unsafe.Sizeof(pt.root)) +
		uint64(nPDPT)*uint64(unsafe.Sizeof(pdptNode{})) +
		uint64(nPD)*uint64(unsafe.Sizeof(pdNode{})) +
		uint64(nPT)*uint64(unsafe.Sizeof(ptNode{})) +
		uint64(cap(pt.index))*uint64(unsafe.Sizeof(regionRef{}))
	if got := pt.StateBytes(); got != want {
		t.Fatalf("StateBytes = %d, tree walk sums to %d", got, want)
	}
	for _, l := range tableLeaves(pt) {
		if _, _, err := pt.Unmap(l.base); err != nil {
			t.Fatal(err)
		}
	}
	checkTree(t, pt)
	if got := pt.StateBytes(); got != empty {
		t.Fatalf("StateBytes after unmapping everything = %d, empty table %d", got, empty)
	}
}

// TestSweepsDoNotAllocate: on a table with split pages the sweeps hand the
// visitor pointers into storage, never the address of a decoded temporary, so
// they allocate nothing; ScanRegions' decoded scratch entry is the one
// allocation it may make per call.
func TestSweepsDoNotAllocate(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 64; i++ {
		if err := pt.Map2M(addr.Virt2M(i), addr.Phys2M(i), Writable); err != nil {
			t.Fatal(err)
		}
		if i%8 == 0 {
			if err := pt.Split(addr.Virt2M(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var leaves int
	var frames addr.Phys
	cut := addr.NewRange(addr.Virt2M(7)+0x5000, 3*addr.PageSize2M)
	for _, sweep := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Scan", 0, func() {
			pt.Scan(func(_ addr.Virt, e *PTE, _ Level) { leaves++; frames += e.Frame() })
		}},
		{"ScanRange", 0, func() {
			pt.ScanRange(cut, func(_ addr.Virt, e *PTE, _ Level) { leaves++; frames += e.Frame() })
		}},
		{"ScanHuge", 0, func() { pt.ScanHuge(func(addr.Virt) { leaves++ }) }},
		{"ScanClear", 0, func() {
			pt.ScanClear(Accessed, func(_ addr.Virt, prior Flags, _ Level) { leaves += int(prior & 1) })
		}},
		{"ClearFlagsRange", 0, func() { leaves += pt.ClearFlagsRange(cut, Accessed) }},
		{"ScanRegions", 1, func() {
			pt.ScanRegions(func(_ addr.Virt, pages int, e *Entry, _ Level) { leaves += pages; frames += e.Frame })
		}},
	} {
		if got := testing.AllocsPerRun(20, sweep.run); got > sweep.max {
			t.Errorf("%s allocates %.0f times per call, want at most %.0f", sweep.name, got, sweep.max)
		}
	}
	if leaves == 0 || frames == 0 {
		t.Fatal("sweeps visited nothing")
	}
}
