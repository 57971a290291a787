package harness

import "fmt"

// PaperRatios are the slow:DRAM cost points Table 4 evaluates.
var PaperRatios = []float64{1.0 / 3, 1.0 / 4, 1.0 / 5}

// TierShare is one tier's slice of the footprint for the cost model: the
// fraction of application bytes resident there and the tier's per-GB cost
// relative to DRAM.
type TierShare struct {
	Name      string
	Fraction  float64
	CostRatio float64
}

// Savings is the paper's DRAM cost-savings model (§5.3, Table 4), for any
// number of tiers: each tier's bytes save 1 − costRatio of their all-DRAM
// price, so the savings relative to an all-DRAM system of the same
// footprint is Σ fraction_i · (1 − costRatio_i). Fractions must sum to 1
// (within rounding). The paper's two-tier model, coldFrac of the footprint
// in slow memory priced at costRatio of DRAM, is the shares {(hot,
// 1 − coldFrac, 1), (cold, coldFrac, costRatio)}, and this sum returns
// exactly coldFrac · (1 − costRatio) for it.
func Savings(shares []TierShare) (float64, error) {
	if len(shares) == 0 {
		return 0, fmt.Errorf("harness: no tier shares")
	}
	var fracSum, saved float64
	for _, s := range shares {
		if s.Fraction < 0 || s.Fraction > 1 {
			return 0, fmt.Errorf("harness: tier %q fraction %v outside [0, 1]", s.Name, s.Fraction)
		}
		if s.CostRatio < 0 || s.CostRatio > 1 {
			return 0, fmt.Errorf("harness: tier %q cost ratio %v outside [0, 1]", s.Name, s.CostRatio)
		}
		fracSum += s.Fraction
		saved += s.Fraction * (1 - s.CostRatio)
	}
	if fracSum < 0.999 || fracSum > 1.001 {
		return 0, fmt.Errorf("harness: tier fractions sum to %v, want 1", fracSum)
	}
	return saved, nil
}

// twoTier is the paper's two-tier split: coldFrac of the footprint in slow
// memory priced at costRatio of DRAM.
func twoTier(coldFrac, costRatio float64) []TierShare {
	return []TierShare{
		{Name: "dram", Fraction: 1 - coldFrac, CostRatio: 1},
		{Name: "slow", Fraction: coldFrac, CostRatio: costRatio},
	}
}
