package badgertrap

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/fault"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

func setup() (*pagetable.Table, *tlb.TLB, *Trap) {
	pt := pagetable.New()
	tl := tlb.New(tlb.DefaultConfig())
	return pt, tl, New(pt, tl, 0)
}

func TestDefaultLatency(t *testing.T) {
	pt, _, bt := setup()
	v := addr.Virt4K(1)
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	// New with a non-positive latency selects the paper's default.
	if lat, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: 1}); err != nil || lat != DefaultFaultLatencyNs {
		t.Fatalf("latency = %d, err = %v", lat, err)
	}
}

func TestPoisonRequiresMapped(t *testing.T) {
	_, _, bt := setup()
	if err := bt.Poison(addr.Virt4K(1), 1); err == nil {
		t.Fatal("poison of unmapped should fail")
	}
}

func TestPoisonHugeLeaf(t *testing.T) {
	// §3.5: cold huge pages in slow memory are monitored by poisoning their
	// PMD entry directly, without splitting.
	pt, tl, bt := setup()
	v := addr.Virt2M(1)
	if err := pt.Map2M(v, addr.Phys2M(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	r := pt.Walk(v+12345, false)
	if !r.Poisoned {
		t.Fatal("walk of poisoned huge page should fault")
	}
	lat, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v + 12345, VPID: 1})
	if err != nil || lat != DefaultFaultLatencyNs {
		t.Fatalf("handle: lat=%d err=%v", lat, err)
	}
	// Count is recorded against the 2MB base, for any offset queried.
	if bt.Count(v+999999) != 1 {
		t.Fatalf("count = %d, want 1", bt.Count(v+999999))
	}
	// Transient translation covers the whole huge page.
	if res, ok := tl.Lookup(v+addr.Virt(addr.PageSize2M-1), 1); !ok || res.Level != pagetable.Level2M {
		t.Fatal("transient 2M translation not installed")
	}
	if !bt.IsPoisoned(v) {
		t.Fatal("PMD not re-poisoned")
	}
}

func TestPoisonFlushesTLB(t *testing.T) {
	pt, tl, bt := setup()
	v := addr.Virt4K(5)
	if err := pt.Map4K(v, addr.Phys4K(9), 0); err != nil {
		t.Fatal(err)
	}
	tl.Insert(v, pagetable.Level4K, addr.Phys4K(9), 1)
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := tl.Lookup(v, 1); ok {
		t.Fatal("TLB entry survived poisoning")
	}
	if !bt.IsPoisoned(v) {
		t.Fatal("IsPoisoned false")
	}
}

func TestHandleCountsAndRepoisons(t *testing.T) {
	pt, tl, bt := setup()
	v := addr.Virt4K(7)
	if err := pt.Map4K(v, addr.Phys4K(3), pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 2); err != nil {
		t.Fatal(err)
	}
	lat, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v + 100, Write: true, VPID: 2})
	if err != nil {
		t.Fatal(err)
	}
	if lat != DefaultFaultLatencyNs {
		t.Fatalf("latency = %d", lat)
	}
	if bt.Count(v) != 1 || bt.TotalFaults() != 1 {
		t.Fatalf("count = %d total = %d", bt.Count(v), bt.TotalFaults())
	}
	// PTE re-poisoned, but the TLB holds a transient valid translation.
	if !bt.IsPoisoned(v) {
		t.Fatal("PTE not re-poisoned")
	}
	if _, ok := tl.Lookup(v, 2); !ok {
		t.Fatal("transient translation not installed")
	}
	// The architectural bits reflect the serviced access.
	e, _, _ := pt.Lookup(v)
	if !e.Flags.Has(pagetable.Accessed | pagetable.Dirty) {
		t.Fatalf("flags = %v", e.Flags)
	}
}

func TestHandleSpuriousFault(t *testing.T) {
	pt, _, bt := setup()
	v := addr.Virt4K(1)
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v}); err == nil {
		t.Fatal("fault on unmapped page should error")
	}
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v}); err == nil {
		t.Fatal("fault on unpoisoned page should error")
	}
}

func TestUnderEstimationViaTLBResidency(t *testing.T) {
	// After a fault installs the transient translation, accesses that hit
	// the TLB are not counted — the paper's documented under-estimation.
	pt, tl, bt := setup()
	v := addr.Virt4K(11)
	if err := pt.Map4K(v, addr.Phys4K(4), 0); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: 1}); err != nil {
		t.Fatal(err)
	}
	// Simulated accesses now hit the TLB: no new faults.
	for i := 0; i < 10; i++ {
		if _, ok := tl.Lookup(v, 1); !ok {
			t.Fatal("expected TLB hit")
		}
	}
	if bt.Count(v) != 1 {
		t.Fatalf("count = %d, want 1 (TLB-resident accesses uncounted)", bt.Count(v))
	}
	// Once the entry is invalidated (eviction analogue), the next walk
	// faults again and the count advances.
	tl.Invalidate(v, 1)
	r := pt.Walk(v, false)
	if !r.Poisoned {
		t.Fatal("walk should trip poison")
	}
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: 1}); err != nil {
		t.Fatal(err)
	}
	if bt.Count(v) != 2 {
		t.Fatalf("count = %d, want 2", bt.Count(v))
	}
}

func TestUnpoisonAndReset(t *testing.T) {
	pt, _, bt := setup()
	v := addr.Virt4K(3)
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := bt.Unpoison(v); err != nil {
		t.Fatal(err)
	}
	if bt.IsPoisoned(v) {
		t.Fatal("still poisoned")
	}
	if bt.Count(v) != 1 {
		t.Fatal("count should survive unpoison")
	}
	bt.ResetCounts()
	if bt.Count(v) != 0 {
		t.Fatal("count survived reset")
	}
	if bt.TotalFaults() != 1 {
		t.Fatal("TotalFaults should be lifetime")
	}
	if err := bt.Unpoison(addr.Virt4K(999)); err == nil {
		t.Fatal("unpoison of unmapped should fail")
	}
}

func TestCountsSnapshotIsCopy(t *testing.T) {
	pt, _, bt := setup()
	v := addr.Virt4K(2)
	if err := pt.Map4K(v, addr.Phys4K(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := bt.Poison(v, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: 1}); err != nil {
		t.Fatal(err)
	}
	snap := bt.CountsSnapshot()
	snap[v.Base4K()] = 99
	if bt.Count(v) != 1 {
		t.Fatal("snapshot mutation leaked")
	}
}
