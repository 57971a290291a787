package core

import "thermostat/internal/addr"

// LastEstimates returns the rate estimates from the most recent classify
// scan (for inspection and the Figure 2 style analyses).
func (e *Engine) LastEstimates() []Estimate {
	return append([]Estimate(nil), e.lastEstimates...)
}

// Heat returns the page's current heat score (for inspection and tests).
func (p *heatPolicy) Heat(base addr.Virt) float64 { return p.heat[base] }
