package tlb

import (
	"fmt"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
)

// diffCaps are the L1/L2 pairs the differential tests cover: the two sizes
// the benchmark workloads run at, an example size, the paper's, two edge
// shapes (L1 == L2, neither a power of two), and the smallest shape on each
// side of the set/index boundary. FuzzTLBVsMapLRU picks by index, so new
// pairs are appended to keep the committed seeds' geometry.
var diffCaps = []Config{{2, 8}, {2, 16}, {4, 64}, {64, 1024}, {8, 8}, {3, 5}, {1, 1}, {2, 9}}

// opBytes is the length of one encoded operation of a differential program.
const opBytes = 4

// runDiff decodes prog into Lookup/Insert/Invalidate/InvalidateRange/
// InvalidateVPID/Flush calls and Lookups that Fill on a miss, over three
// VPIDs and both grains, applies each to a flat TLB and to the map-backed
// reference (which takes a Fill as an Insert), and fails on the first
// difference in Result or Size, on a structural violation, or on different
// Stats at the end. Page selectors are taken modulo 2×L2Entries and
// the whole-TLB operations are rare, so every capacity fills up and sees L1
// hits, L2 hits, evictions and coexisting 4KB/2MB entries.
func runDiff(t *testing.T, cfg Config, prog []byte) {
	t.Helper()
	got, want := New(cfg), newRefTLB(cfg)
	universe := uint64(2 * cfg.L2Entries)
	checkEvery := 1
	if cfg.L2Entries > 64 {
		checkEvery = 101 // the structural check is O(L2Entries)
	}
	for n := 0; len(prog) >= opBytes; n, prog = n+1, prog[opBytes:] {
		op, sel, mod, arg := prog[0]%16, uint64(prog[1]), prog[2], prog[3]
		sel = (sel | uint64(mod&0x0f)<<8) % universe
		vpid := [4]VPID{0, 1, 1, 2}[mod>>6]
		v := addr.Virt4K(sel) + addr.Virt(arg)
		if mod&0x10 != 0 {
			v = addr.Virt2M(sel) + addr.Virt(arg&3)<<addr.PageShift4K
		}
		lvl := pagetable.Level4K
		if mod&0x20 != 0 {
			lvl = pagetable.Level2M
		}
		frame := addr.Phys4K(uint64(arg)<<8 | uint64(prog[1]))
		desc := ""
		switch {
		case op == 15 && arg == 0 && mod&0x0f == 0:
			desc = "Flush"
			got.Flush()
			want.Flush()
		case op == 15 && arg < 4 && mod&0x0c == 0:
			desc = fmt.Sprintf("InvalidateVPID(%d)", vpid)
			got.InvalidateVPID(vpid)
			want.InvalidateVPID(vpid)
		case op == 14:
			size := (uint64(arg)%16 + 1) << addr.PageShift4K
			if lvl == pagetable.Level2M && arg < 16 {
				size = (uint64(arg)%4 + 1) << addr.PageShift2M
			}
			r := addr.Range{Start: v, End: v + addr.Virt(size)}
			desc = fmt.Sprintf("InvalidateRange(%v, %d)", r, vpid)
			got.InvalidateRange(r, vpid)
			want.InvalidateRange(r, vpid)
		case op >= 12 && op < 14:
			desc = fmt.Sprintf("Invalidate(%v, %d)", v, vpid)
			got.Invalidate(v, vpid)
			want.Invalidate(v, vpid)
		case op >= 7 && op < 12:
			desc = fmt.Sprintf("Insert(%v, %v, %v, %d)", v, lvl, frame, vpid)
			got.Insert(v, lvl, frame, vpid)
			want.Insert(v, lvl, frame, vpid)
		default:
			desc = fmt.Sprintf("Lookup(%v, %d)", v, vpid)
			gr, gok := got.Lookup(v, vpid)
			wr, wok := want.Lookup(v, vpid)
			if gr != wr || gok != wok {
				t.Fatalf("%d/%d op %d %s = %+v %v, reference %+v %v",
					cfg.L1Entries, cfg.L2Entries, n, desc, gr, gok, wr, wok)
			}
			if op == 6 && !gok {
				desc += fmt.Sprintf(" missed, Fill(%v, %v, %v, %d)", v, lvl, frame, vpid)
				got.Fill(v, lvl, frame, vpid)
				want.Insert(v, lvl, frame, vpid)
			}
		}
		g1, g2 := got.Size()
		w1, w2 := want.Size()
		if g1 != w1 || g2 != w2 {
			t.Fatalf("%d/%d op %d %s: Size %d/%d, reference %d/%d",
				cfg.L1Entries, cfg.L2Entries, n, desc, g1, g2, w1, w2)
		}
		if n%checkEvery == 0 {
			if err := got.checkStructure(); err != nil {
				t.Fatalf("%d/%d op %d %s: %v", cfg.L1Entries, cfg.L2Entries, n, desc, err)
			}
		}
	}
	if err := got.checkStructure(); err != nil {
		t.Fatalf("%d/%d at end: %v", cfg.L1Entries, cfg.L2Entries, err)
	}
	if got.Stats() != want.Stats() {
		t.Fatalf("%d/%d Stats %+v, reference %+v", cfg.L1Entries, cfg.L2Entries, got.Stats(), want.Stats())
	}
}

// checkStructure verifies the set form's sizes and keys (checkSet), or that
// the index form's index, LRU list with its L1 prefix, and freelist account
// for every slot exactly once, and that every occupied index cell carries
// its slot's key.
func (t *TLB) checkStructure() error {
	if t.set != nil {
		return t.checkSet()
	}
	if t.n1 > t.cap1 || t.n1 > t.n2 || t.n2 > len(t.entries) {
		return fmt.Errorf("sizes n1=%d n2=%d caps %d/%d", t.n1, t.n2, t.cap1, len(t.entries))
	}
	const (
		unseen = iota
		live
		free
	)
	state := make([]byte, len(t.entries))
	pos, prev, lastL1 := 0, nilSlot, nilSlot
	for s := t.head; s >= 0; s = t.entries[s].next {
		e := &t.entries[s]
		if state[s] != unseen {
			return fmt.Errorf("slot %d twice on the LRU list", s)
		}
		state[s] = live
		if e.prev != prev {
			return fmt.Errorf("slot %d prev %d, want %d", s, e.prev, prev)
		}
		if e.inL1 != (pos < t.n1) {
			return fmt.Errorf("slot %d at list position %d inL1=%v with n1=%d", s, pos, e.inL1, t.n1)
		}
		if e.inL1 {
			lastL1 = s
		}
		if t.find(e.vpn, tagOf(e.lvl, e.vpid)) != s {
			return fmt.Errorf("slot %d not reachable through the index", s)
		}
		prev, pos = s, pos+1
	}
	if pos != t.n2 || t.tail != prev || t.l1tail != lastL1 {
		return fmt.Errorf("list holds %d (n2=%d), tail %d (last %d), l1tail %d (last in L1 %d)",
			pos, t.n2, t.tail, prev, t.l1tail, lastL1)
	}
	nfree := 0
	for s := t.free; s >= 0; s = t.entries[s].next {
		if state[s] != unseen {
			return fmt.Errorf("slot %d on the freelist and elsewhere", s)
		}
		state[s] = free
		nfree++
	}
	if nfree != len(t.entries)-t.n2 {
		return fmt.Errorf("freelist holds %d, want %d", nfree, len(t.entries)-t.n2)
	}
	cells := 0
	for i, c := range t.index {
		if c.slot < 0 {
			continue
		}
		cells++
		if e := &t.entries[c.slot]; c.vpn != e.vpn || c.tag != tagOf(e.lvl, e.vpid) {
			return fmt.Errorf("cell %d holds key (%d, %#x) for slot %d keyed (%d, %v, %d)",
				i, c.vpn, c.tag, c.slot, e.vpn, e.lvl, e.vpid)
		}
	}
	// Every live slot is reachable and find never returns a wrong slot, so
	// equal counts mean the index holds each live slot exactly once.
	if cells != t.n2 || 2*cells > len(t.index) {
		return fmt.Errorf("index holds %d of %d cells, n2=%d", cells, len(t.index), t.n2)
	}
	return nil
}

// checkSet verifies that the set form's L1 prefix and live entries fit
// their capacities, that no key is cached twice, and that every tag names a
// 4 KB or 2 MB grain.
func (t *TLB) checkSet() error {
	if t.n1 < 0 || t.n1 > t.cap1 || t.n1 > t.n2 || t.n2 > len(t.set) {
		return fmt.Errorf("sizes n1=%d n2=%d caps %d/%d", t.n1, t.n2, t.cap1, len(t.set))
	}
	live := t.set[:t.n2]
	for i := range live {
		w := &live[i]
		if l := w.lvl(); l != pagetable.Level4K && l != pagetable.Level2M {
			return fmt.Errorf("position %d tag %#x has grain %v", i, w.tag, l)
		}
		for j := range live[:i] {
			if live[j].vpn == w.vpn && live[j].tag == w.tag {
				return fmt.Errorf("key (%d, %#x) at positions %d and %d", w.vpn, w.tag, j, i)
			}
		}
	}
	return nil
}

// randomProgram is a seeded op sequence for runDiff.
func randomProgram(seed uint64, ops int) []byte {
	r := rng.New(seed)
	prog := make([]byte, ops*opBytes)
	for i := range prog {
		prog[i] = byte(r.Uint64n(256))
	}
	return prog
}

func TestTLBMatchesMapLRU(t *testing.T) {
	ops := 300_000
	if testing.Short() {
		ops = 60_000
	}
	for i, cfg := range diffCaps {
		runDiff(t, cfg, randomProgram(uint64(i)+1, ops))
	}
}

// FuzzTLBVsMapLRU runs runDiff on a program whose first byte picks the
// capacity pair; seeds are in testdata/fuzz/FuzzTLBVsMapLRU.
func FuzzTLBVsMapLRU(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		runDiff(t, diffCaps[int(data[0])%len(diffCaps)], data[1:])
	})
}

// TestAccessPathDoesNotAllocate pins the steady state on a full TLB of each
// form (2/8 the set, 64/1024 the index): an L1 hit, an L2 hit, a miss, the
// fill after it (which evicts), inserts into free slots, and both
// invalidations reuse the preallocated entries.
func TestAccessPathDoesNotAllocate(t *testing.T) {
	for _, cfg := range []Config{{2, 8}, {64, 1024}} {
		tl := New(cfg)
		n := uint64(cfg.L2Entries)
		for i := uint64(0); i < n; i++ {
			tl.Insert(addr.Virt4K(i), pagetable.Level4K, addr.Phys4K(i), 1)
		}
		// Each round starts with pages base..base+n-1 cached, least recent
		// first, and ends the same way three pages further on.
		base := uint64(0)
		page := func(i uint64) addr.Virt { return addr.Virt4K(base + i) }
		const runs = 200
		allocs := testing.AllocsPerRun(runs, func() {
			tl.Lookup(page(n-1), 1)                                   // L1 hit
			tl.Lookup(page(0), 1)                                     // L2 hit
			tl.Lookup(page(n), 1)                                     // miss
			tl.Fill(page(n), pagetable.Level4K, addr.Phys4K(base), 1) // evicts page(1)
			tl.Invalidate(page(0), 1)
			tl.Insert(page(n+1), pagetable.Level4K, addr.Phys4K(base), 1) // free slot
			tl.InvalidateRange(addr.Range{Start: page(2), End: page(3)}, 1)
			tl.Insert(page(n+2), pagetable.Level4K, addr.Phys4K(base), 1) // free slot
			base += 3
		})
		if allocs != 0 {
			t.Errorf("%d/%d: %v allocs per access-path round", cfg.L1Entries, cfg.L2Entries, allocs)
		}
		rounds := uint64(runs + 1) // AllocsPerRun warms up once
		if s := tl.Stats(); s != (Stats{HitsL1: rounds, HitsL2: rounds, Misses: rounds}) {
			t.Errorf("%d/%d: rounds did not exercise one L1 hit, L2 hit and miss each: %+v",
				cfg.L1Entries, cfg.L2Entries, s)
		}
		if l1, l2 := tl.Size(); l1 != cfg.L1Entries || l2 != cfg.L2Entries {
			t.Errorf("%d/%d: TLB not full after the rounds (%d/%d)", cfg.L1Entries, cfg.L2Entries, l1, l2)
		}
		if err := tl.checkStructure(); err != nil {
			t.Errorf("%d/%d: %v", cfg.L1Entries, cfg.L2Entries, err)
		}
	}
}

// TestNewPicksFormBySize: New holds up to 8 L2 entries as the set form and
// more as the index form, whatever L1Entries is.
func TestNewPicksFormBySize(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		set bool
	}{
		{Config{1, 1}, true}, {Config{2, 5}, true}, {Config{8, 8}, true},
		{Config{2, 9}, false}, {Config{2, 16}, false}, {Config{64, 1024}, false},
	} {
		tl := New(tc.cfg)
		if gotSet, gotIndex := tl.set != nil, tl.index != nil; gotSet != tc.set || gotIndex == tc.set {
			t.Errorf("New(%d/%d): set form %v, index form %v; want set form %v",
				tc.cfg.L1Entries, tc.cfg.L2Entries, gotSet, gotIndex, tc.set)
		}
	}
}

func TestNonInclusiveConfigRejected(t *testing.T) {
	if _, err := (Config{L1Entries: 8, L2Entries: 4}).Normalize(); err == nil {
		t.Error("Normalize accepted L2Entries < L1Entries")
	}
	// Defaults apply before the check: a zero L2 means 1024, not "below L1".
	if cfg, err := (Config{L1Entries: 128}).Normalize(); err != nil || cfg.L2Entries != 1024 {
		t.Errorf("Normalize({128, 0}) = %+v, %v", cfg, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("New built a TLB whose L1 cannot be a subset of L2")
		}
	}()
	New(Config{L1Entries: 8, L2Entries: 4})
}
