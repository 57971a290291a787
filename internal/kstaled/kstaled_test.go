package kstaled

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

func setup(t *testing.T, nHuge int) (*pagetable.Table, *tlb.TLB, *Scanner) {
	t.Helper()
	pt := pagetable.New()
	tl := tlb.New(tlb.DefaultConfig())
	for i := 0; i < nHuge; i++ {
		if err := pt.Map2M(addr.Virt2M(uint64(i)), addr.Phys2M(uint64(i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	return pt, tl, New(pt, tl, 1, 0)
}

func TestScanClearsAccessedAndFlushes(t *testing.T) {
	pt, tl, s := setup(t, 2)
	v := addr.Virt2M(0)
	pt.Walk(v, false) // sets Accessed
	tl.Insert(v, pagetable.Level2M, addr.Phys2M(0), 1)

	res := s.Scan()
	if res.Scanned != 2 || res.AccessedSet != 1 {
		t.Fatalf("result %+v", res)
	}
	e, _, _ := pt.Lookup(v)
	if e.Flags.Has(pagetable.Accessed) {
		t.Fatal("Accessed not cleared")
	}
	if _, ok := tl.Lookup(v, 1); ok {
		t.Fatal("TLB entry survived scan")
	}
	if res.CostNs != 2*DefaultEntryCostNs {
		t.Fatalf("cost = %d", res.CostNs)
	}
}

func TestIdleAccumulation(t *testing.T) {
	pt, _, s := setup(t, 2)
	hot, cold := addr.Virt2M(0), addr.Virt2M(1)
	for i := 0; i < 5; i++ {
		pt.Walk(hot, false) // touch the hot page each interval
		s.Scan()
	}
	if s.State(cold).IdleScans < 5 {
		t.Fatal("cold page not idle after 5 scans")
	}
	if s.State(hot).IdleScans >= 1 {
		t.Fatal("hot page reported idle")
	}
	if st := s.State(hot); st.HotStreak != 5 {
		t.Fatalf("hot streak = %d, want 5", st.HotStreak)
	}
	// IdleFraction: one of two equal-size pages idle.
	if f := s.IdleFraction(5); f != 0.5 {
		t.Fatalf("IdleFraction = %v, want 0.5", f)
	}
}

func TestIdleResetOnAccess(t *testing.T) {
	pt, _, s := setup(t, 1)
	v := addr.Virt2M(0)
	s.Scan()
	s.Scan()
	if s.State(v).IdleScans < 2 {
		t.Fatal("page should be idle")
	}
	pt.Walk(v, false)
	s.Scan()
	if s.State(v).IdleScans >= 1 {
		t.Fatal("idle streak should reset after access")
	}
}

func TestUnmappedPagesForgotten(t *testing.T) {
	pt, _, s := setup(t, 2)
	s.Scan()
	if _, _, err := pt.Unmap(addr.Virt2M(1)); err != nil {
		t.Fatal(err)
	}
	res := s.Scan()
	if res.Scanned != 1 {
		t.Fatalf("scanned %d, want 1", res.Scanned)
	}
	if s.State(addr.Virt2M(1)) != nil {
		t.Fatal("unmapped page state retained")
	}
}

func TestIdleFractionMixedGrains(t *testing.T) {
	pt := pagetable.New()
	tl := tlb.New(tlb.DefaultConfig())
	if err := pt.Map2M(addr.Virt2M(0), addr.Phys2M(0), 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(addr.Virt2M(1), addr.Phys4K(9), 0); err != nil {
		t.Fatal(err)
	}
	s := New(pt, tl, 1, 0)
	s.Scan() // both idle (never accessed)
	// 2MB idle + 4KB idle out of 2MB+4KB total = 1.0.
	if f := s.IdleFraction(1); f != 1.0 {
		t.Fatalf("IdleFraction = %v", f)
	}
	// Touch the huge page: idle fraction drops to 4K/(2M+4K).
	pt.Walk(addr.Virt2M(0), false)
	s.Scan()
	want := float64(addr.PageSize4K) / float64(addr.PageSize2M+addr.PageSize4K)
	if f := s.IdleFraction(1); f != want {
		t.Fatalf("IdleFraction = %v, want %v", f, want)
	}
}

func TestIdleFractionEmpty(t *testing.T) {
	_, _, s := setup(t, 0)
	if s.IdleFraction(1) != 0 {
		t.Fatal("empty tracker should report 0")
	}
}

func TestHotSubpagesAfterSplit(t *testing.T) {
	pt, _, s := setup(t, 1)
	v := addr.Virt2M(0)
	if err := pt.Split(v); err != nil {
		t.Fatal(err)
	}
	// Touch children 3 and 7 across three scans; child 100 only once.
	for i := 0; i < 3; i++ {
		pt.Walk(v+3*addr.Virt(addr.PageSize4K), false)
		pt.Walk(v+7*addr.Virt(addr.PageSize4K), false)
		if i == 0 {
			pt.Walk(v+100*addr.Virt(addr.PageSize4K), false)
		}
		s.Scan()
	}
	if got := s.HotSubpages(v, 3); got != 2 {
		t.Fatalf("HotSubpages(3) = %d, want 2", got)
	}
	if got := s.HotSubpages(v, 1); got != 2 {
		t.Fatalf("HotSubpages(1) = %d, want 2 (child 100 streak broken)", got)
	}
}

func TestAccessedSubpages(t *testing.T) {
	pt, _, _ := setup(t, 1)
	v := addr.Virt2M(0)
	if err := pt.Split(v); err != nil {
		t.Fatal(err)
	}
	pt.Walk(v+5*addr.Virt(addr.PageSize4K), false)
	pt.Walk(v+400*addr.Virt(addr.PageSize4K), true)
	got := AccessedSubpages(pt, v)
	if len(got) != 2 || got[0] != 5 || got[1] != 400 {
		t.Fatalf("AccessedSubpages = %v", got)
	}
}
