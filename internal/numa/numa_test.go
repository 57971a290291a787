package numa

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

type fixture struct {
	sys *mem.System
	pt  *pagetable.Table
	tl  *tlb.TLB
	mig *Migrator
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	sys, err := mem.NewHierarchy(mem.DefaultDRAM(16<<20), mem.DefaultSlow(16<<20))
	if err != nil {
		t.Fatal(err)
	}
	pt := pagetable.New()
	tl := tlb.New(tlb.DefaultConfig())
	return &fixture{sys: sys, pt: pt, tl: tl, mig: NewMigrator(sys, pt, tl, mem.NewMeter(0))}
}

func (f *fixture) mapHuge(t *testing.T, v addr.Virt, tier mem.TierID) addr.Phys {
	t.Helper()
	p, err := f.sys.Tier(tier).Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.pt.Map2M(v, p, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMoveHugeLeaf(t *testing.T) {
	f := newFixture(t)
	v := addr.Virt2M(3)
	f.mapHuge(t, v, mem.Fast)
	f.tl.Insert(v, pagetable.Level2M, 0, 1)
	fastBefore := f.sys.Tier(mem.Fast).Used()

	cost, err := f.mig.MoveHuge(v+777, mem.Slow, 1, mem.Demotion)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("cost = %d", cost)
	}
	tier, err := f.mig.TierOfPage(v)
	if err != nil || tier != mem.Slow {
		t.Fatalf("tier = %v err = %v", tier, err)
	}
	if f.sys.Tier(mem.Fast).Used() != fastBefore-addr.PageSize2M {
		t.Fatal("source frame not freed")
	}
	if f.sys.Tier(mem.Slow).Used() != addr.PageSize2M {
		t.Fatal("destination frame not charged")
	}
	if _, ok := f.tl.Lookup(v, 1); ok {
		t.Fatal("stale TLB translation survived migration")
	}
	if f.mig.Meter().Bytes(mem.Demotion) != addr.PageSize2M {
		t.Fatal("traffic not metered")
	}
}

func TestMoveHugeSplitRegionPreservesFlagsAndSplit(t *testing.T) {
	f := newFixture(t)
	v := addr.Virt2M(5)
	f.mapHuge(t, v, mem.Fast)
	if err := f.pt.Split(v); err != nil {
		t.Fatal(err)
	}
	child := v + 3*addr.Virt(addr.PageSize4K)
	f.pt.SetFlags(child, pagetable.Poisoned)

	if _, err := f.mig.MoveHuge(v, mem.Slow, 1, mem.Demotion); err != nil {
		t.Fatal(err)
	}
	// Still split, children contiguous in the new tier, poison preserved.
	if f.pt.Count4K() != addr.PagesPerHuge {
		t.Fatal("split mapping collapsed unexpectedly")
	}
	e0, _, _ := f.pt.Lookup(v)
	if mem.TierOf(e0.Frame) != mem.Slow {
		t.Fatal("children not in slow tier")
	}
	for i := 0; i < addr.PagesPerHuge; i++ {
		cv := v + addr.Virt(uint64(i)*addr.PageSize4K)
		ce, _, ok := f.pt.Lookup(cv)
		if !ok || ce.Frame != e0.Frame+addr.Phys(uint64(i)*addr.PageSize4K) {
			t.Fatalf("child %d not contiguous", i)
		}
	}
	ce, _, _ := f.pt.Lookup(child)
	if !ce.Flags.Has(pagetable.Poisoned) {
		t.Fatal("poison lost in migration")
	}
	// Collapse must work after migration (frames contiguous + aligned)
	// once the poison is cleared.
	f.pt.ClearFlags(child, pagetable.Poisoned)
	if err := f.pt.Collapse(v); err != nil {
		t.Fatalf("collapse after migration: %v", err)
	}
}

func TestMoveHugeErrors(t *testing.T) {
	f := newFixture(t)
	if _, err := f.mig.MoveHuge(addr.Virt2M(9), mem.Slow, 1, mem.Demotion); err == nil {
		t.Fatal("unmapped move should fail")
	}
	v := addr.Virt2M(1)
	f.mapHuge(t, v, mem.Fast)
	if _, err := f.mig.MoveHuge(v, mem.Fast, 1, mem.Demotion); err == nil {
		t.Fatal("same-tier move should fail")
	}
}

func TestMoveHugeDestinationFull(t *testing.T) {
	sys, err := mem.NewHierarchy(mem.DefaultDRAM(16<<20), mem.DefaultSlow(0))
	if err != nil {
		t.Fatal(err)
	}
	pt := pagetable.New()
	tl := tlb.New(tlb.DefaultConfig())
	mig := NewMigrator(sys, pt, tl, mem.NewMeter(0))
	p, err := sys.Tier(mem.Fast).Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	v := addr.Virt2M(1)
	if err := pt.Map2M(v, p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := mig.MoveHuge(v, mem.Slow, 1, mem.Demotion); err == nil {
		t.Fatal("move into full tier should fail")
	}
	// Source mapping must be intact after the failed move.
	if tier, _ := mig.TierOfPage(v); tier != mem.Fast {
		t.Fatal("failed move disturbed the mapping")
	}
}

func TestMove4K(t *testing.T) {
	f := newFixture(t)
	p, err := f.sys.Tier(mem.Fast).Alloc4K()
	if err != nil {
		t.Fatal(err)
	}
	v := addr.Virt4K(40)
	if err := f.pt.Map4K(v, p, 0); err != nil {
		t.Fatal(err)
	}
	cost, err := f.mig.Move4K(v, mem.Slow, 1, mem.Promotion)
	if err != nil || cost <= 0 {
		t.Fatalf("Move4K: cost=%d err=%v", cost, err)
	}
	if tier, _ := f.mig.TierOfPage(v); tier != mem.Slow {
		t.Fatal("page not in slow tier")
	}
	if f.mig.Meter().Pages4K(mem.Promotion) != 1 {
		t.Fatal("4K move not metered")
	}
	// Move back: round trip.
	if _, err := f.mig.Move4K(v, mem.Fast, 1, mem.Promotion); err != nil {
		t.Fatal(err)
	}
	if f.sys.Tier(mem.Slow).Used() != 0 {
		t.Fatalf("slow tier leaked %d bytes", f.sys.Tier(mem.Slow).Used())
	}
}

func TestMove4KRejectsSplitChild(t *testing.T) {
	f := newFixture(t)
	v := addr.Virt2M(2)
	f.mapHuge(t, v, mem.Fast)
	if err := f.pt.Split(v); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mig.Move4K(v, mem.Slow, 1, mem.Demotion); err == nil {
		t.Fatal("moving a split-THP child individually should fail")
	}
}

func TestMove4KRejectsHuge(t *testing.T) {
	f := newFixture(t)
	v := addr.Virt2M(2)
	f.mapHuge(t, v, mem.Fast)
	if _, err := f.mig.Move4K(v, mem.Slow, 1, mem.Demotion); err == nil {
		t.Fatal("Move4K of huge mapping should fail")
	}
}

func TestRoundTripHugePreservesData(t *testing.T) {
	// A demote/promote cycle must leave the mapping translating correctly
	// and both allocators balanced.
	f := newFixture(t)
	v := addr.Virt2M(7)
	f.mapHuge(t, v, mem.Fast)
	if _, err := f.mig.MoveHuge(v, mem.Slow, 1, mem.Demotion); err != nil {
		t.Fatal(err)
	}
	if _, err := f.mig.MoveHuge(v, mem.Fast, 1, mem.Promotion); err != nil {
		t.Fatal(err)
	}
	if tier, _ := f.mig.TierOfPage(v); tier != mem.Fast {
		t.Fatal("not back in fast tier")
	}
	if f.sys.Tier(mem.Slow).Used() != 0 {
		t.Fatal("slow tier leaked")
	}
	if _, _, ok := f.pt.Lookup(v + 123); !ok {
		t.Fatal("translation lost")
	}
}

func TestCopyCostReflectsBandwidth(t *testing.T) {
	f := newFixture(t)
	v := addr.Virt2M(3)
	f.mapHuge(t, v, mem.Fast)
	cost, err := f.mig.MoveHuge(v, mem.Slow, 1, mem.Demotion)
	if err != nil {
		t.Fatal(err)
	}
	// 2MiB at the slow tier's 10GB/s plus per-page overhead ≈ 210us + 3us.
	bytes := float64(addr.PageSize2M)
	wantCopy := int64(bytes / 10e9 * 1e9)
	if cost < wantCopy || cost > wantCopy+2*defaultPerPageOverheadNs {
		t.Fatalf("cost = %dns, want ~%dns", cost, wantCopy+defaultPerPageOverheadNs)
	}
}
