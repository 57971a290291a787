package core

import (
	"testing"
	"testing/quick"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

func TestSelectColdSetTakesColdestWithinBudget(t *testing.T) {
	t.Parallel()
	ests := []Estimate{
		{Base: addr.Virt2M(1), Rate: 100},
		{Base: addr.Virt2M(2), Rate: 5},
		{Base: addr.Virt2M(3), Rate: 0},
		{Base: addr.Virt2M(4), Rate: 50},
	}
	got := SelectColdSet(ests, 60)
	// Sorted: 0, 5, 50, 100 -> cumulative 0, 5, 55; adding 100 exceeds 60.
	want := []addr.Virt{addr.Virt2M(3), addr.Virt2M(2), addr.Virt2M(4)}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectColdSetZeroBudgetTakesOnlyZeroRate(t *testing.T) {
	t.Parallel()
	ests := []Estimate{
		{Base: addr.Virt2M(1), Rate: 0},
		{Base: addr.Virt2M(2), Rate: 0.1},
	}
	got := SelectColdSet(ests, 0)
	if len(got) != 1 || got[0] != addr.Virt2M(1) {
		t.Fatalf("got %v", got)
	}
}

func TestSelectColdSetEmpty(t *testing.T) {
	t.Parallel()
	if got := SelectColdSet(nil, 100); got != nil {
		t.Fatalf("got %v", got)
	}
}

func TestSelectColdSetDoesNotMutateInput(t *testing.T) {
	t.Parallel()
	ests := []Estimate{{Base: addr.Virt2M(1), Rate: 9}, {Base: addr.Virt2M(2), Rate: 1}}
	SelectColdSet(ests, 100)
	if ests[0].Rate != 9 {
		t.Fatal("input reordered")
	}
}

func TestSelectPromotionsUnderTargetIsNil(t *testing.T) {
	t.Parallel()
	cold := []Measured{{Base: addr.Virt2M(1), Rate: 10}, {Base: addr.Virt2M(2), Rate: 15}}
	if got := selectPromotions(cold, 30); got != nil {
		t.Fatalf("got %v, want nil", got)
	}
}

func TestSelectPromotionsEvictsHottestFirst(t *testing.T) {
	t.Parallel()
	cold := []Measured{
		{Base: addr.Virt2M(1), Rate: 10},
		{Base: addr.Virt2M(2), Rate: 100},
		{Base: addr.Virt2M(3), Rate: 40},
	}
	got := selectPromotions(cold, 45)
	// Total 150 > 45: evict 100 (total 50, still over), then 40 (total 10).
	want := []addr.Virt{addr.Virt2M(2), addr.Virt2M(3)}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestSelectPromotionsAllIfNeeded(t *testing.T) {
	t.Parallel()
	cold := []Measured{{Base: addr.Virt2M(1), Rate: 50}, {Base: addr.Virt2M(2), Rate: 50}}
	if got := selectPromotions(cold, 0); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

// Property: the cold set's cumulative rate never exceeds the budget, and the
// selection is maximal in count among prefix selections of the sorted order.
func TestSelectColdSetBudgetProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, budgetRaw uint16) bool {
		r := rng.New(seed)
		budget := float64(budgetRaw % 1000)
		n := 1 + r.Intn(50)
		ests := make([]Estimate, n)
		rates := map[addr.Virt]float64{}
		for i := range ests {
			ests[i] = Estimate{Base: addr.Virt2M(uint64(i)), Rate: float64(r.Intn(200))}
			rates[ests[i].Base] = ests[i].Rate
		}
		picked := SelectColdSet(ests, budget)
		sum := 0.0
		for _, b := range picked {
			sum += rates[b]
		}
		if sum > budget {
			return false
		}
		// Every non-picked page must not fit: adding the cheapest
		// remaining page would exceed budget.
		pickedSet := map[addr.Virt]bool{}
		for _, b := range picked {
			pickedSet[b] = true
		}
		minRemaining := -1.0
		for _, e := range ests {
			if !pickedSet[e.Base] && (minRemaining < 0 || e.Rate < minRemaining) {
				minRemaining = e.Rate
			}
		}
		return minRemaining < 0 || sum+minRemaining > budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after applying selectPromotions the remaining rate is within
// target (or everything was promoted).
func TestSelectPromotionsConvergesProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, targetRaw uint16) bool {
		r := rng.New(seed)
		target := float64(targetRaw % 500)
		n := r.Intn(40)
		cold := make([]Measured, n)
		total := 0.0
		for i := range cold {
			cold[i] = Measured{Base: addr.Virt2M(uint64(i)), Rate: float64(r.Intn(100))}
			total += cold[i].Rate
		}
		promoted := map[addr.Virt]bool{}
		for _, b := range selectPromotions(cold, target) {
			promoted[b] = true
		}
		remaining := 0.0
		for _, c := range cold {
			if !promoted[c.Base] {
				remaining += c.Rate
			}
		}
		return remaining <= target || len(promoted) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScaleEstimate(t *testing.T) {
	t.Parallel()
	// 30 faults in 10s over 10 poisoned of 100 accessed pages:
	// observed 3/s scaled by 10x = 30/s.
	if got := scaleEstimate(30, 10, 100, 10); got != 30 {
		t.Fatalf("ScaleEstimate = %v, want 30", got)
	}
	// Degenerate inputs.
	if scaleEstimate(5, 10, 100, 0) != 0 {
		t.Fatal("zero poisoned should give 0")
	}
	if scaleEstimate(5, 0, 100, 10) != 0 {
		t.Fatal("zero interval should give 0")
	}
	// Full coverage: no scaling.
	if got := scaleEstimate(50, 1, 50, 50); got != 50 {
		t.Fatalf("unscaled = %v", got)
	}
}
