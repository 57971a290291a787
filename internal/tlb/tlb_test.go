package tlb

import (
	"fmt"
	"testing"
	"testing/quick"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
)

func TestMissOnEmpty(t *testing.T) {
	tl := New(DefaultConfig())
	if _, ok := tl.Lookup(addr.Virt4K(1), 1); ok {
		t.Fatal("empty TLB hit")
	}
	s := tl.Stats()
	if s.Misses != 1 || s.Lookups() != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestInsertHit4K(t *testing.T) {
	tl := New(DefaultConfig())
	v, p := addr.Virt4K(10), addr.Phys4K(20)
	tl.Insert(v, pagetable.Level4K, p, 1)
	r, ok := tl.Lookup(v+100, 1)
	if !ok || r.Frame != p || r.Level != pagetable.Level4K || r.Hit != hitL1 {
		t.Fatalf("lookup %+v ok=%v", r, ok)
	}
	// A different 4K page in the same 2M region must miss.
	if _, ok := tl.Lookup(v+addr.Virt(addr.PageSize4K), 1); ok {
		t.Fatal("adjacent page hit")
	}
}

func TestInsertHit2MReach(t *testing.T) {
	tl := New(DefaultConfig())
	v, p := addr.Virt2M(3), addr.Phys2M(7)
	tl.Insert(v, pagetable.Level2M, p, 1)
	// Any offset within the 2MB page hits the single entry.
	for _, off := range []uint64{0, 4096, 999999, addr.PageSize2M - 1} {
		r, ok := tl.Lookup(v+addr.Virt(off), 1)
		if !ok || r.Level != pagetable.Level2M || r.Frame != p {
			t.Fatalf("offset %#x: %+v ok=%v", off, r, ok)
		}
	}
}

func TestVPIDIsolation(t *testing.T) {
	tl := New(DefaultConfig())
	v := addr.Virt4K(5)
	tl.Insert(v, pagetable.Level4K, addr.Phys4K(1), 1)
	if _, ok := tl.Lookup(v, 2); ok {
		t.Fatal("entry visible under wrong VPID")
	}
	if _, ok := tl.Lookup(v, 0); ok {
		t.Fatal("guest entry visible to host")
	}
}

func TestInvalidate(t *testing.T) {
	tl := New(DefaultConfig())
	v := addr.Virt2M(1)
	tl.Insert(v, pagetable.Level2M, addr.Phys2M(1), 3)
	tl.Insert(v, pagetable.Level4K, addr.Phys4K(9), 3)
	tl.Invalidate(v, 3)
	if _, ok := tl.Lookup(v, 3); ok {
		t.Fatal("translation survived Invalidate")
	}
	// Invalidate under a different VPID must not touch other VPIDs.
	tl.Insert(v, pagetable.Level4K, addr.Phys4K(9), 4)
	tl.Invalidate(v, 3)
	if _, ok := tl.Lookup(v, 4); !ok {
		t.Fatal("Invalidate crossed VPIDs")
	}
}

func TestInvalidateVPID(t *testing.T) {
	tl := New(DefaultConfig())
	for i := uint64(0); i < 10; i++ {
		tl.Insert(addr.Virt4K(i), pagetable.Level4K, addr.Phys4K(i), 1)
		tl.Insert(addr.Virt4K(i+100), pagetable.Level4K, addr.Phys4K(i), 2)
	}
	tl.InvalidateVPID(1)
	for i := uint64(0); i < 10; i++ {
		if _, ok := tl.Lookup(addr.Virt4K(i), 1); ok {
			t.Fatal("VPID 1 entry survived")
		}
		if _, ok := tl.Lookup(addr.Virt4K(i+100), 2); !ok {
			t.Fatal("VPID 2 entry lost")
		}
	}
}

func TestL1EvictionFallsBackToL2(t *testing.T) {
	tl := New(Config{L1Entries: 4, L2Entries: 64})
	for i := uint64(0); i < 8; i++ {
		tl.Insert(addr.Virt4K(i), pagetable.Level4K, addr.Phys4K(i), 1)
	}
	// Entry 0 must have been evicted from L1 (capacity 4) but still be in L2.
	r, ok := tl.Lookup(addr.Virt4K(0), 1)
	if !ok || r.Hit != hitL2 {
		t.Fatalf("want L2 hit, got %+v ok=%v", r, ok)
	}
	// The L2 hit promotes to L1: immediate re-lookup hits L1.
	r, ok = tl.Lookup(addr.Virt4K(0), 1)
	if !ok || r.Hit != hitL1 {
		t.Fatalf("want promoted L1 hit, got %+v ok=%v", r, ok)
	}
}

func TestCapacityBounded(t *testing.T) {
	tl := New(Config{L1Entries: 8, L2Entries: 16})
	for i := uint64(0); i < 1000; i++ {
		tl.Insert(addr.Virt4K(i), pagetable.Level4K, addr.Phys4K(i), 1)
	}
	l1, l2 := tl.Size()
	if l1 > 8 || l2 > 16 {
		t.Fatalf("sizes %d/%d exceed capacity", l1, l2)
	}
}

func TestLRUOrderRespected(t *testing.T) {
	tl := New(Config{L1Entries: 2, L2Entries: 2})
	a, b, c := addr.Virt4K(1), addr.Virt4K(2), addr.Virt4K(3)
	tl.Insert(a, pagetable.Level4K, addr.Phys4K(1), 1)
	tl.Insert(b, pagetable.Level4K, addr.Phys4K(2), 1)
	tl.Lookup(a, 1) // refresh a; b becomes LRU
	tl.Insert(c, pagetable.Level4K, addr.Phys4K(3), 1)
	if _, ok := tl.Lookup(a, 1); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := tl.Lookup(b, 1); ok {
		t.Fatal("LRU entry survived over-capacity insert")
	}
}

func TestFlush(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Insert(addr.Virt4K(1), pagetable.Level4K, addr.Phys4K(1), 1)
	tl.flush()
	if l1, l2 := tl.Size(); l1 != 0 || l2 != 0 {
		t.Fatalf("sizes after flush %d/%d", l1, l2)
	}
}

func TestStatsAndReset(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Insert(addr.Virt4K(1), pagetable.Level4K, addr.Phys4K(1), 1)
	tl.Lookup(addr.Virt4K(1), 1)
	tl.Lookup(addr.Virt4K(2), 1)
	s := tl.Stats()
	if s.HitsL1 != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
	if s.MissRate() != 0.5 {
		t.Fatalf("MissRate = %v", s.MissRate())
	}
	tl.ResetStats()
	if tl.Stats().Lookups() != 0 {
		t.Fatal("ResetStats did not zero")
	}
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

// Property: after any sequence of inserts/invalidates, a hit always returns
// the most recently inserted frame for that page, and sizes stay bounded.
func TestTLBConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tl := New(Config{L1Entries: 8, L2Entries: 32})
		truth := map[uint64]addr.Phys{} // 4K vpn -> frame (vpid 1 only)
		for step := 0; step < 2000; step++ {
			vpn := r.Uint64n(64)
			v := addr.Virt4K(vpn)
			switch r.Intn(3) {
			case 0:
				p := addr.Phys4K(r.Uint64n(1 << 20))
				tl.Insert(v, pagetable.Level4K, p, 1)
				truth[vpn] = p
			case 1:
				tl.Invalidate(v, 1)
				delete(truth, vpn)
			case 2:
				if res, ok := tl.Lookup(v, 1); ok {
					want, live := truth[vpn]
					if !live || res.Frame != want {
						return false
					}
				}
			}
			l1, l2 := tl.Size()
			if l1 > 8 || l2 > 32 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// benchCaps are the sizes the runs use: harness.Tiny (the set form),
// harness.Bench and the paper's testbed (the index form).
var benchCaps = []Config{{2, 8}, {2, 16}, {64, 1024}}

func benchEachCap(b *testing.B, fn func(b *testing.B, cfg Config, tl *TLB)) {
	for _, cfg := range benchCaps {
		b.Run(fmt.Sprintf("%d-%d", cfg.L1Entries, cfg.L2Entries), func(b *testing.B) {
			fn(b, cfg, New(cfg))
		})
	}
}

var benchSink lookupResult

func BenchmarkLookupHit(b *testing.B) {
	benchEachCap(b, func(b *testing.B, _ Config, tl *TLB) {
		tl.Insert(addr.Virt2M(1), pagetable.Level2M, addr.Phys2M(1), 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = tl.Lookup(addr.Virt2M(1)+4096, 1)
		}
	})
}

// BenchmarkLookupMiss is the redis-walk case: a full TLB and a lookup that
// probes both grains and finds neither.
func BenchmarkLookupMiss(b *testing.B) {
	benchEachCap(b, func(b *testing.B, cfg Config, tl *TLB) {
		n := uint64(cfg.L2Entries)
		for i := uint64(0); i < n; i++ {
			tl.Insert(addr.Virt4K(i), pagetable.Level4K, addr.Phys4K(i), 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchSink, _ = tl.Lookup(addr.Virt2M(4096+uint64(i)&1023), 1)
		}
	})
}

// BenchmarkLookupMissFill is a TLB miss as the access path takes it on a
// full TLB: a lookup that finds neither grain, then the fill that evicts.
func BenchmarkLookupMissFill(b *testing.B) {
	benchEachCap(b, func(b *testing.B, cfg Config, tl *TLB) {
		for i := 0; i < cfg.L2Entries; i++ {
			tl.Insert(addr.Virt4K(uint64(i)), pagetable.Level4K, addr.Phys4K(uint64(i)), 1)
		}
		b.ResetTimer()
		for i := cfg.L2Entries; i < cfg.L2Entries+b.N; i++ {
			v := addr.Virt4K(uint64(i))
			if _, ok := tl.Lookup(v, 1); !ok {
				tl.Fill(v, pagetable.Level4K, addr.Phys4K(uint64(i)), 1)
			}
		}
	})
}

func BenchmarkInsertEvict(b *testing.B) {
	benchEachCap(b, func(b *testing.B, _ Config, tl *TLB) {
		for i := 0; i < b.N; i++ {
			tl.Insert(addr.Virt4K(uint64(i)), pagetable.Level4K, addr.Phys4K(uint64(i)), 1)
		}
	})
}
