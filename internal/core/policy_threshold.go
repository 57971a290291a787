package core

import (
	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/sim"
)

// sinkAfterIdleScans is how many consecutive zero-access correction passes
// sink a cold page one tier deeper in an N-tier hierarchy.
const sinkAfterIdleScans = 3

// ThresholdPolicy is the paper's slowdown-threshold placement rule: demote
// the coldest estimated pages while their cumulative access rate stays
// within the coverage-scaled budget implied by the tolerable slowdown
// (§3.4), and correct mis-classifications by promoting the hottest cold
// pages whenever the measured aggregate cold-access rate exceeds the target
// (§3.5). In hierarchies deeper than the paper's two tiers it additionally
// sinks persistently idle cold pages one tier further down.
type ThresholdPolicy struct {
	ledger

	// idleScans counts consecutive zero-access correction passes per
	// cold page; pages idle for sinkAfterIdleScans passes sink one tier
	// deeper when the hierarchy has more than two tiers.
	idleScans map[addr.Virt]int
}

// NewThresholdPolicy builds the slowdown-threshold policy.
func NewThresholdPolicy() *ThresholdPolicy {
	return &ThresholdPolicy{
		ledger:    newLedger(),
		idleScans: make(map[addr.Virt]int),
	}
}

// Name implements Policy.
func (p *ThresholdPolicy) Name() string { return "threshold" }

// StateBytes implements Policy: the ledger and the sink idle-streak map.
// All hold one entry per cold or benched page, not per mapped page, so a
// mostly-untouched terabyte costs the policy almost nothing.
func (p *ThresholdPolicy) StateBytes() uint64 {
	return p.stateBytes() + uint64(len(p.idleScans))*16
}

// Attach implements Policy.
func (p *ThresholdPolicy) Attach(m *sim.Machine, g *cgroup.Group, tr Tracker) error {
	p.attach(m, g, tr)
	return nil
}

// Correct implements §3.5: measure every cold page's access rate through
// the tracker and promote the hottest pages one tier up until the aggregate
// is back under the target rate. In hierarchies deeper than the paper's two
// tiers, it additionally sinks persistently idle cold pages one tier
// further down.
func (p *ThresholdPolicy) Correct(intervalSec float64) error {
	all := p.measureCold(intervalSec)
	measured := make([]Measured, 0, len(all))
	for _, c := range all {
		if !p.isQuarantined(c.Base) {
			measured = append(measured, c)
		}
	}
	promos := selectPromotions(measured, p.group.Params().TargetSlowAccessRate())
	if len(promos) > 0 && p.m.Recorder() != nil {
		rates := make(map[addr.Virt]float64, len(measured))
		for _, c := range measured {
			rates[c.Base] = c.Rate
		}
		for _, base := range promos {
			p.classified(base, rates[base], false)
		}
	}
	for _, base := range promos {
		if _, err := p.promote(base); err != nil {
			return err
		}
		if !p.cold[base] {
			delete(p.idleScans, base)
		}
	}
	if p.m.Memory().NumTiers() > 2 {
		return p.sink(measured)
	}
	return nil
}

// sink implements the N-tier extension of the placement rule: a cold page
// measured completely idle for sinkAfterIdleScans consecutive correction
// passes moves one tier further down, freeing the warmer tier for pages
// with some residual access rate. Never reached with two tiers.
func (p *ThresholdPolicy) sink(measured []Measured) error {
	for _, c := range measured {
		if !p.cold[c.Base] {
			continue // promoted to the top tier this pass
		}
		if c.Rate > 0 {
			delete(p.idleScans, c.Base)
			continue
		}
		p.idleScans[c.Base]++
		if p.idleScans[c.Base] < sinkAfterIdleScans {
			continue
		}
		tier, err := p.m.Migrator().TierOfPage(c.Base)
		if err != nil {
			return err
		}
		if tier >= p.m.Memory().Bottom() {
			continue // nowhere deeper to go
		}
		handled, err := p.attemptMove(c.Base, func() error {
			_, err := p.m.Demote(c.Base)
			return err
		})
		if err != nil {
			return err
		}
		if handled {
			p.demoteFailures.Inc()
			continue
		}
		p.idleScans[c.Base] = 0
		p.tr.NotePlaced(c.Base)
		p.sinks.Inc()
	}
	return nil
}

// Place implements the §3.4 placement rule: demote the coldest of this
// period's placeable top-tier estimates while their cumulative rate stays
// within the coverage-scaled slow-access budget.
func (p *ThresholdPolicy) Place(ests []Estimate) error {
	budget := p.tr.Coverage() * p.group.Params().TargetSlowAccessRate()
	eligible := make([]Estimate, 0, len(ests))
	for _, est := range ests {
		if p.placeable(est.Base) {
			eligible = append(eligible, est)
		}
	}
	coldSet := SelectColdSet(eligible, budget)
	p.placeVerdicts(ests, coldSet)
	for _, base := range coldSet {
		if _, err := p.DemoteForCapacity(base); err != nil {
			return err
		}
	}
	return nil
}
