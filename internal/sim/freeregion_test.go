package sim

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
)

// TestFreeRegionRestoresMachineState exercises the tenant-departure path:
// a region holding hot fast-tier pages, a demoted (poisoned) page, and a
// sampling-split page must tear down to exactly the pre-allocation state —
// allocator usage, page-table leaves, TLB entries, and trap counts.
func TestFreeRegionRestoresMachineState(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	fast := m.Memory().Tier(mem.Fast)
	slow := m.Memory().Tier(mem.Slow)
	fastUsed, slowUsed := fast.Used(), slow.Used()
	mappedBytes := func() uint64 {
		pt := m.PageTable()
		return uint64(pt.Count4K())*addr.PageSize4K + uint64(pt.Count2M())*addr.PageSize2M
	}
	mapped := mappedBytes()

	r, err := m.AllocRegion(8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	// Touch every page so the TLB and trap have state to tear down.
	for v := r.Start; v < r.End; v += addr.Virt(addr.PageSize4K) {
		if _, err := m.Access(v, false); err != nil {
			t.Fatal(err)
		}
	}
	// One page demoted (poisoned, slow tier), with a fault recorded on it.
	cold := r.Start.Base2M()
	if _, err := m.Demote(cold); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(cold, false); err != nil {
		t.Fatal(err)
	}
	if m.Trap().CountLeaf(cold) == 0 {
		t.Fatal("expected a poison fault on the demoted page")
	}
	// One page split for sampling with a poisoned 4KB leaf, as the poison
	// tracker leaves it mid-period.
	split := cold + addr.Virt(addr.PageSize2M)
	if err := m.PageTable().Split(split); err != nil {
		t.Fatal(err)
	}
	if err := m.Trap().Poison(split+addr.Virt(addr.PageSize4K), m.VPID()); err != nil {
		t.Fatal(err)
	}

	freed, err := m.FreeRegion(r)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := freed[mem.Fast], uint64(6<<20); got != want {
		t.Errorf("fast bytes freed = %d, want %d", got, want)
	}
	if got, want := freed[mem.Slow], uint64(2<<20); got != want {
		t.Errorf("slow bytes freed = %d, want %d", got, want)
	}
	if fast.Used() != fastUsed || slow.Used() != slowUsed {
		t.Errorf("allocator usage not restored: fast %d->%d slow %d->%d",
			fastUsed, fast.Used(), slowUsed, slow.Used())
	}
	if got := mappedBytes(); got != mapped {
		t.Errorf("mapped bytes = %d, want %d", got, mapped)
	}
	for v := r.Start; v < r.End; v += addr.Virt(addr.PageSize2M) {
		if _, ok := m.TLB().Lookup(v, m.VPID()); ok {
			t.Errorf("stale TLB entry for %s", v)
		}
	}
	if m.Trap().CountLeaf(cold) != 0 {
		t.Error("trap counts survived FreeRegion")
	}
	if _, err := m.Access(r.Start, false); err == nil {
		t.Error("access to freed region succeeded")
	}

	// The frames are reusable: an identical allocation succeeds.
	if _, err := m.AllocRegion(8<<20, true); err != nil {
		t.Fatal(err)
	}
}

// TestFreeRegion4K covers the THP-disabled allocation grain.
func TestFreeRegion4K(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	fast := m.Memory().Tier(mem.Fast)
	used := fast.Used()
	r, err := m.AllocRegion(1<<20, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(r.Start, true); err != nil {
		t.Fatal(err)
	}
	freed, err := m.FreeRegion(r)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := freed[mem.Fast], uint64(1<<20); got != want {
		t.Errorf("freed = %d, want %d", got, want)
	}
	if fast.Used() != used {
		t.Errorf("fast usage %d, want %d", fast.Used(), used)
	}
}
