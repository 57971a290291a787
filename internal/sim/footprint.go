package sim

import (
	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
)

// addLeaf accumulates one mapped leaf of the given grain, backed by the
// given tier, into the footprint — the single home of the grain/tier →
// bytes arithmetic every footprint accounting path shares. ByTier is only
// populated when the caller pre-sized it (ScanFootprint does).
func (f *Footprint) addLeaf(lvl pagetable.Level, tier mem.TierID) {
	slow := tier != mem.Fast
	switch {
	case lvl == pagetable.Level2M && slow:
		f.Cold2M += addr.PageSize2M
	case lvl == pagetable.Level2M:
		f.Hot2M += addr.PageSize2M
	case slow:
		f.Cold4K += addr.PageSize4K
	default:
		f.Hot4K += addr.PageSize4K
	}
	if int(tier) < len(f.ByTier) {
		if lvl == pagetable.Level2M {
			f.ByTier[tier].Bytes2M += addr.PageSize2M
		} else {
			f.ByTier[tier].Bytes4K += addr.PageSize4K
		}
	}
}

// AllHotFootprint classifies every mapped leaf as top-tier resident — the
// accounting for policies that never migrate (NullPolicy and the harness
// scan baselines). It reads the page table's leaf counters instead of
// walking, so it is O(1).
func AllHotFootprint(pt *pagetable.Table) Footprint {
	return Footprint{
		Hot2M: uint64(pt.Count2M()) * addr.PageSize2M,
		Hot4K: uint64(pt.Count4K()) * addr.PageSize4K,
	}
}
