// Package core implements Thermostat itself: the online, huge-page-aware
// hot/cold page classification and placement mechanism of Section 3.
//
// The engine runs a three-scan sampling cycle per sampling period
// (Figure 4):
//
//	scan 1 — split a random fraction of huge pages (5%) and clear their
//	         children's Accessed bits;
//	scan 2 — read the Accessed-bit pre-filter, then poison up to K (50)
//	         randomly chosen accessed 4KB children per sampled page;
//	scan 3 — estimate each sampled huge page's access rate from the poison
//	         fault counts, classify the coldest into slow memory under the
//	         fraction-scaled rate budget, and restore the rest.
//
// Independently, every scan interval the corrector (§3.5) compares the
// measured access rate of all cold pages against the target rate implied by
// the tolerable slowdown and promotes the hottest cold pages back to fast
// memory until the rate is under budget.
package core

import (
	"sort"

	"thermostat/internal/addr"
)

// Estimate is one sampled huge page's estimated access rate.
type Estimate struct {
	// Base is the huge page's virtual base address.
	Base addr.Virt
	// Rate is the estimated accesses/second for the whole 2MB page.
	Rate float64
}

// SelectColdSet implements the §3.4 placement rule: sort the sampled pages
// by estimated access rate ascending and take the coldest pages while their
// cumulative rate stays within budget (accesses/second). Pages with any
// negative rate are rejected by panic — estimates are counts over time.
func SelectColdSet(ests []Estimate, budget float64) []addr.Virt {
	sorted := append([]Estimate(nil), ests...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Rate < sorted[j].Rate })
	var out []addr.Virt
	sum := 0.0
	for _, e := range sorted {
		if e.Rate < 0 {
			panic("core: negative rate estimate")
		}
		if sum+e.Rate > budget {
			break
		}
		sum += e.Rate
		out = append(out, e.Base)
	}
	return out
}

// Measured is one cold page's measured access rate (from poison-fault
// counts).
type Measured struct {
	Base addr.Virt
	Rate float64
}

// selectPromotions implements the §3.5 correction rule: given the measured
// rates of all pages currently in slow memory, if their aggregate exceeds
// target (accesses/second), promote the most frequently accessed pages until
// the remainder fits. Returns the pages to promote, hottest first.
func selectPromotions(cold []Measured, target float64) []addr.Virt {
	total := 0.0
	for _, c := range cold {
		total += c.Rate
	}
	if total <= target {
		return nil
	}
	sorted := append([]Measured(nil), cold...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Rate > sorted[j].Rate })
	var out []addr.Virt
	for _, c := range sorted {
		if total <= target {
			break
		}
		total -= c.Rate
		out = append(out, c.Base)
	}
	return out
}

// scaleEstimate implements the §3.2 spatial extrapolation: the aggregate
// rate of a 2MB page is the observed fault rate over the poisoned sample
// scaled by the ratio of accessed 4KB pages to poisoned 4KB pages. The
// remaining (never-accessed) pages are assumed to contribute nothing.
func scaleEstimate(faultCount uint64, intervalSec float64, nAccessed, nPoisoned int) float64 {
	if nPoisoned == 0 || intervalSec <= 0 {
		return 0
	}
	observed := float64(faultCount) / intervalSec
	return observed * float64(nAccessed) / float64(nPoisoned)
}
