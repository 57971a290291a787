package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

func testTier(capacity uint64) *Tier {
	return NewTier(Fast, DefaultDRAM(capacity))
}

func TestTierOf(t *testing.T) {
	s := NewSystem(DefaultDRAM(16<<20), DefaultSlow(16<<20))
	pf, err := s.Tier(Fast).Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := s.Tier(Slow).Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if TierOf(pf) != Fast {
		t.Errorf("fast frame %s attributed to %s", pf, TierOf(pf))
	}
	if TierOf(ps) != Slow {
		t.Errorf("slow frame %s attributed to %s", ps, TierOf(ps))
	}
}

func TestAlloc2MExhaustion(t *testing.T) {
	tier := testTier(4 << 20) // two 2MB frames
	if _, err := tier.Alloc2M(); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Alloc2M(); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Alloc2M(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("expected ErrOutOfMemory, got %v", err)
	}
	if tier.Free() != 0 {
		t.Fatalf("Free = %d, want 0", tier.Free())
	}
}

func TestAllocFreeCycle2M(t *testing.T) {
	tier := testTier(2 << 20)
	p, err := tier.Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	tier.Free2M(p)
	if tier.Used() != 0 {
		t.Fatalf("Used = %d after free", tier.Used())
	}
	p2, err := tier.Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p {
		t.Fatalf("re-allocation got %s, want recycled %s", p2, p)
	}
}

func TestAlloc4KBreaksAndCoalesces(t *testing.T) {
	tier := testTier(2 << 20) // single 2MB frame
	var frames []addr.Phys
	for i := 0; i < addr.PagesPerHuge; i++ {
		p, err := tier.Alloc4K()
		if err != nil {
			t.Fatalf("Alloc4K #%d: %v", i, err)
		}
		frames = append(frames, p)
	}
	if tier.Used() != addr.PageSize2M {
		t.Fatalf("Used = %d, want full frame", tier.Used())
	}
	// Frame exhausted at both grains now.
	if _, err := tier.Alloc4K(); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("expected exhaustion")
	}
	// Distinctness.
	seen := map[addr.Phys]bool{}
	for _, p := range frames {
		if seen[p] {
			t.Fatalf("duplicate 4K frame %s", p)
		}
		seen[p] = true
	}
	// Free all: should coalesce back to a 2MB allocation.
	for _, p := range frames {
		tier.Free4K(p)
	}
	if tier.Used() != 0 {
		t.Fatalf("Used = %d after freeing all", tier.Used())
	}
	if _, err := tier.Alloc2M(); err != nil {
		t.Fatalf("2MB frame did not coalesce: %v", err)
	}
}

func TestFree4KDoubleFreePanics(t *testing.T) {
	tier := testTier(2 << 20)
	p, _ := tier.Alloc4K()
	tier.Free4K(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	tier.Free4K(p)
}

func TestFree2MUnalignedPanics(t *testing.T) {
	tier := testTier(2 << 20)
	p, _ := tier.Alloc2M()
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned Free2M did not panic")
		}
	}()
	tier.Free2M(p + 4096)
}

func TestMixedGrainAccounting(t *testing.T) {
	tier := testTier(8 << 20)
	p2, _ := tier.Alloc2M()
	p4, _ := tier.Alloc4K()
	want := addr.PageSize2M + addr.PageSize4K
	if tier.Used() != want {
		t.Fatalf("Used = %d, want %d", tier.Used(), want)
	}
	tier.Free2M(p2)
	tier.Free4K(p4)
	if tier.Used() != 0 {
		t.Fatalf("Used = %d, want 0", tier.Used())
	}
}

func TestSystemLatencies(t *testing.T) {
	s := NewSystem(DefaultDRAM(4<<20), DefaultSlow(4<<20))
	pf, _ := s.Tier(Fast).Alloc2M()
	ps, _ := s.Tier(Slow).Alloc2M()
	if s.ReadLatency(pf) >= s.ReadLatency(ps) {
		t.Fatal("fast tier should have lower read latency than slow")
	}
	if s.ReadLatency(ps) != 1000 {
		t.Fatalf("slow read latency = %d, want 1000ns", s.ReadLatency(ps))
	}
}

// Property: any interleaving of allocs and frees keeps Used() equal to the
// sum of outstanding allocations, and never hands out overlapping frames.
func TestAllocatorInvariantProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tier := testTier(16 << 20)
		var live4K []addr.Phys
		var live2M []addr.Phys
		owned := map[addr.Phys]bool{} // 4K-grain ownership map
		for step := 0; step < 500; step++ {
			switch r.Intn(4) {
			case 0: // alloc 4K
				if p, err := tier.Alloc4K(); err == nil {
					if owned[p] {
						return false
					}
					owned[p] = true
					live4K = append(live4K, p)
				}
			case 1: // alloc 2M
				if p, err := tier.Alloc2M(); err == nil {
					for i := 0; i < addr.PagesPerHuge; i++ {
						q := p + addr.Phys(uint64(i)*addr.PageSize4K)
						if owned[q] {
							return false
						}
						owned[q] = true
					}
					live2M = append(live2M, p)
				}
			case 2: // free 4K
				if len(live4K) > 0 {
					i := r.Intn(len(live4K))
					p := live4K[i]
					live4K[i] = live4K[len(live4K)-1]
					live4K = live4K[:len(live4K)-1]
					delete(owned, p)
					tier.Free4K(p)
				}
			case 3: // free 2M
				if len(live2M) > 0 {
					i := r.Intn(len(live2M))
					p := live2M[i]
					live2M[i] = live2M[len(live2M)-1]
					live2M = live2M[:len(live2M)-1]
					for j := 0; j < addr.PagesPerHuge; j++ {
						delete(owned, p+addr.Phys(uint64(j)*addr.PageSize4K))
					}
					tier.Free2M(p)
				}
			}
			want := uint64(len(live4K))*addr.PageSize4K + uint64(len(live2M))*addr.PageSize2M
			if tier.Used() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(0)
	m.RecordPair(Demotion, 0, 1, addr.PageSize2M)
	m.RecordPair(Promotion, 1, 0, addr.PageSize4K)
	if m.Bytes(Demotion) != addr.PageSize2M {
		t.Fatalf("demotion bytes = %d", m.Bytes(Demotion))
	}
	if m.TotalBytes() != addr.PageSize2M+addr.PageSize4K {
		t.Fatalf("total bytes = %d", m.TotalBytes())
	}
	if m.Pages2M(Demotion) != 1 || m.Pages4K(Promotion) != 1 {
		t.Fatal("page counts wrong")
	}
	// 2MB over one virtual second = 2MiB/s ≈ 2.097 MB/s.
	got := m.RateMBps(Demotion, 1e9)
	if got < 2.0 || got > 2.2 {
		t.Fatalf("RateMBps = %v", got)
	}
}

// TestLazyAllocOrder pins the allocation sequence the lazy bump allocator
// must preserve from the eager free list it replaced: frames hand out from
// the tier base upward, and freed frames are reused LIFO before the bump
// pointer advances.
func TestLazyAllocOrder(t *testing.T) {
	tier := testTier(8 << 20)
	var got []addr.Phys
	for i := 0; i < 3; i++ {
		p, err := tier.Alloc2M()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	for i, p := range got {
		if want := addr.Phys(uint64(i) * addr.PageSize2M); p != want {
			t.Fatalf("alloc %d = %s, want %s (base upward)", i, p, want)
		}
	}
	tier.Free2M(got[0])
	tier.Free2M(got[2])
	if p, _ := tier.Alloc2M(); p != got[2] {
		t.Fatalf("first realloc = %s, want LIFO %s", p, got[2])
	}
	if p, _ := tier.Alloc2M(); p != got[0] {
		t.Fatalf("second realloc = %s, want LIFO %s", p, got[0])
	}
	if p, _ := tier.Alloc2M(); p != addr.Phys(3*addr.PageSize2M) {
		t.Fatal("bump pointer did not resume after freed list drained")
	}
}

// TestTierStateBytesO1: allocator state is independent of capacity until
// frames are actually freed or broken.
func TestTierStateBytesO1(t *testing.T) {
	small := testTier(1 << 30)
	huge := testTier(1 << 40)
	if small.StateBytes() != huge.StateBytes() {
		t.Fatalf("state scales with capacity: %d vs %d bytes", small.StateBytes(), huge.StateBytes())
	}
}
