package sim

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
)

// TestFootprintAddLeaf pins the shared grain/tier → bytes arithmetic: fast
// leaves are hot, everything below is cold, and ByTier fills only when the
// caller pre-sized it.
func TestFootprintAddLeaf(t *testing.T) {
	t.Parallel()
	var fp Footprint
	fp.ByTier = make([]tierBytes, 3)

	fp.addLeaf(pagetable.Level2M, mem.Fast)
	fp.addLeaf(pagetable.Level2M, mem.TierID(1))
	fp.addLeaf(pagetable.Level2M, mem.TierID(2))
	fp.addLeaf(pagetable.Level4K, mem.Fast)
	fp.addLeaf(pagetable.Level4K, mem.TierID(1))

	if fp.Hot2M != addr.PageSize2M || fp.Cold2M != 2*addr.PageSize2M {
		t.Fatalf("2M split wrong: hot=%d cold=%d", fp.Hot2M, fp.Cold2M)
	}
	if fp.Hot4K != addr.PageSize4K || fp.Cold4K != addr.PageSize4K {
		t.Fatalf("4K split wrong: hot=%d cold=%d", fp.Hot4K, fp.Cold4K)
	}
	if got := fp.Total(); got != 3*addr.PageSize2M+2*addr.PageSize4K {
		t.Fatalf("Total = %d", got)
	}
	if fp.ByTier[0].Bytes2M != addr.PageSize2M || fp.ByTier[0].Bytes4K != addr.PageSize4K {
		t.Fatalf("tier 0 bytes wrong: %+v", fp.ByTier[0])
	}
	if fp.ByTier[1].Bytes2M != addr.PageSize2M || fp.ByTier[1].Bytes4K != addr.PageSize4K {
		t.Fatalf("tier 1 bytes wrong: %+v", fp.ByTier[1])
	}
	if fp.ByTier[2].Bytes2M != addr.PageSize2M || fp.ByTier[2].Bytes4K != 0 {
		t.Fatalf("tier 2 bytes wrong: %+v", fp.ByTier[2])
	}

	// Without a pre-sized ByTier the per-tier breakdown is skipped but the
	// hot/cold totals still accumulate.
	var flat Footprint
	flat.addLeaf(pagetable.Level2M, mem.TierID(1))
	if flat.ByTier != nil || flat.Cold2M != addr.PageSize2M {
		t.Fatalf("flat accounting wrong: %+v", flat)
	}
}

// TestAllHotFootprintMatchesScan: on a machine that never migrated, the
// O(1) counter-based footprint must equal the full page-table walk.
func TestAllHotFootprintMatchesScan(t *testing.T) {
	t.Parallel()
	m, err := New(DefaultConfig(64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocRegion(8<<20, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocRegion(1<<20, false); err != nil { // 4K-mapped region
		t.Fatal(err)
	}
	walk := ScanFootprint(m, nil)
	fast := AllHotFootprint(m.PageTable())
	if fast.Hot2M != walk.Hot2M || fast.Hot4K != walk.Hot4K {
		t.Fatalf("counter footprint %+v != walked %+v", fast, walk)
	}
	if fast.Cold() != 0 || walk.Cold() != 0 {
		t.Fatalf("fresh machine reported cold bytes: %+v / %+v", fast, walk)
	}
	if fast.Hot2M == 0 || fast.Hot4K == 0 {
		t.Fatalf("expected both grains mapped: %+v", fast)
	}
}
