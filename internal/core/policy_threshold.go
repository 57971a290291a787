package core

import (
	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
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
	group *cgroup.Group
	m     *sim.Machine
	tr    Tracker

	// cold tracks every page below the top tier; in an N-tier hierarchy
	// the page may sit in any lower tier (idleScans drives it deeper).
	cold map[addr.Virt]bool

	// idleScans counts consecutive zero-access correction passes per
	// cold page; pages idle for sinkAfterIdleScans passes sink one tier
	// deeper when the hierarchy has more than two tiers.
	idleScans map[addr.Virt]int

	// scope, when set, restricts footprint accounting.
	scope func() []addr.Range

	// noCorrection disables the §3.5 corrector (ablation).
	noCorrection bool

	// lastColdRate is the aggregate measured access rate to the cold set
	// from the most recent Correct pass (accesses/sec) — the input to the
	// per-tenant slowdown estimate the fleet arbiter feeds on.
	lastColdRate float64

	mv mover
}

// NewThresholdPolicy builds the slowdown-threshold policy with the default
// migration retry parameters.
func NewThresholdPolicy() *ThresholdPolicy {
	return &ThresholdPolicy{
		cold:      make(map[addr.Virt]bool),
		idleScans: make(map[addr.Virt]int),
		mv:        newMover(),
	}
}

// Name implements Policy.
func (p *ThresholdPolicy) Name() string { return "threshold" }

// StateBytes reports the policy's resident metadata: the cold set and the
// sink idle-streak map. Both hold one entry per cold page, not per mapped
// page, so a mostly-untouched terabyte costs the policy almost nothing.
func (p *ThresholdPolicy) StateBytes() uint64 {
	return uint64(len(p.cold))*16 + uint64(len(p.idleScans))*16
}

// Attach implements Policy.
func (p *ThresholdPolicy) Attach(m *sim.Machine, g *cgroup.Group, tr Tracker) error {
	p.m = m
	p.group = g
	p.tr = tr
	p.mv.m = m
	return nil
}

// SetScope implements Policy.
func (p *ThresholdPolicy) SetScope(provider func() []addr.Range) { p.scope = provider }

// SetCorrection enables or disables the §3.5 corrector. For ablation
// studies: without it, mis-classified pages stay in slow memory until
// resampled, and slowdown is unbounded under working-set changes.
func (p *ThresholdPolicy) SetCorrection(on bool) { p.noCorrection = !on }

// SetRetryPolicy overrides the migration retry/quarantine parameters (for
// tests and experiments). maxAttempts < 1 is clamped to 1.
func (p *ThresholdPolicy) SetRetryPolicy(maxAttempts int, backoffBaseNs int64, quarantinePeriods uint64) {
	p.mv.setRetryPolicy(maxAttempts, backoffBaseNs, quarantinePeriods)
}

// IsCold implements Policy (and sim.ColdChecker through the engine).
func (p *ThresholdPolicy) IsCold(base addr.Virt) bool { return p.cold[base] }

// ColdPages implements Policy.
func (p *ThresholdPolicy) ColdPages() int { return len(p.cold) }

// QuarantinedPages returns the number of pages currently serving a
// quarantine sentence (including lazily-unexpired entries).
func (p *ThresholdPolicy) QuarantinedPages() int { return len(p.mv.quarUntil) }

// ActiveQuarantinedPages returns the pages whose quarantine sentence is
// still running (excludes lazily-unexpired entries).
func (p *ThresholdPolicy) ActiveQuarantinedPages() int { return p.mv.activeQuarantined() }

// PlacementStats implements Policy.
func (p *ThresholdPolicy) PlacementStats() PlacementStats { return p.mv.stats() }

// EndPeriod implements Policy.
func (p *ThresholdPolicy) EndPeriod() { p.mv.endPeriod() }

// scopeRanges returns the current scope (nil = everything).
func (p *ThresholdPolicy) scopeRanges() []addr.Range {
	if p.scope == nil {
		return nil
	}
	return p.scope()
}

// Footprint implements Policy: classify every mapped leaf by backing tier
// and grain.
func (p *ThresholdPolicy) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, p.scopeRanges())
}

// Correct implements §3.5: measure every cold page's access rate through
// the tracker and promote the hottest pages one tier up until the aggregate
// is back under the target rate. In hierarchies deeper than the paper's two
// tiers, it additionally sinks persistently idle cold pages one tier
// further down.
func (p *ThresholdPolicy) Correct(intervalSec float64) error {
	p.lastColdRate = 0
	if p.noCorrection || len(p.cold) == 0 {
		return nil
	}
	// Canonical order so equal-rate ties break deterministically (map
	// iteration order must not leak into placement decisions).
	all := p.tr.MeasureCold(sortedColdSet(p.cold), intervalSec)
	for _, c := range all {
		p.lastColdRate += c.Rate
	}
	// Quarantined pages were still measured — so when the sentence expires
	// the measured rate covers one interval, not the whole bench — but are
	// not placement candidates.
	measured := make([]Measured, 0, len(all))
	for _, c := range all {
		if p.mv.isQuarantined(c.Base) {
			continue
		}
		measured = append(measured, c)
	}
	target := p.group.Params().TargetSlowAccessRate()
	promos := SelectPromotions(measured, target)
	if rec := p.m.Recorder(); rec != nil && len(promos) > 0 {
		rates := make(map[addr.Virt]float64, len(measured))
		for _, c := range measured {
			rates[c.Base] = c.Rate
		}
		for _, base := range promos {
			rec.Event(telemetry.Event{
				Kind: telemetry.KindClassified, TimeNs: p.m.Clock(),
				Page: base, Rate: rates[base], Cold: false,
			})
		}
	}
	for _, base := range promos {
		if err := p.promote(base); err != nil {
			return err
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
		if _, stillCold := p.cold[c.Base]; !stillCold {
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
		handled, err := p.mv.attemptMove(c.Base, func() error {
			_, err := p.m.Demote(c.Base)
			return err
		})
		if err != nil {
			return err
		}
		if handled {
			p.mv.demoteFailures.Inc()
			continue
		}
		p.idleScans[c.Base] = 0
		p.tr.NotePlaced(c.Base)
		p.mv.sinks.Inc()
	}
	return nil
}

// promote moves a cold huge page one tier up the hierarchy. A page
// reaching the top (fast) tier stops being monitored; in deeper
// hierarchies a page promoted into an intermediate tier stays in the cold
// set and keeps its tracker-based monitoring. Failures take the same
// retry/quarantine path as demotions — a full fast tier degrades the
// correction, it no longer kills the run.
func (p *ThresholdPolicy) promote(base addr.Virt) error {
	handled, err := p.mv.attemptMove(base, func() error {
		_, err := p.m.Promote(base)
		return err
	})
	if err != nil {
		return err
	}
	if handled {
		p.mv.promoteFailures.Inc()
		return nil
	}
	p.mv.promotions.Inc()
	if tier, err := p.m.Migrator().TierOfPage(base); err == nil && tier != mem.Fast {
		p.tr.NotePlaced(base)
		return nil
	}
	delete(p.cold, base)
	delete(p.idleScans, base)
	return nil
}

// Place implements the §3.4 placement rule: demote the coldest of this
// period's top-tier estimates while their cumulative rate stays within the
// coverage-scaled slow-access budget. Quarantined pages are not placement
// candidates while their sentence runs, and neither is a page already in the
// cold set: Engine.Squeeze can demote a page the tracker has mid-sample, and
// the estimate that sample later yields still describes it as top-tier.
func (p *ThresholdPolicy) Place(ests []Estimate) error {
	params := p.group.Params()
	budget := p.tr.Coverage() * params.TargetSlowAccessRate()
	eligible := make([]Estimate, 0, len(ests))
	for _, est := range ests {
		if !p.cold[est.Base] && !p.mv.isQuarantined(est.Base) {
			eligible = append(eligible, est)
		}
	}
	coldSet := SelectColdSet(eligible, budget)
	if rec := p.m.Recorder(); rec != nil && len(ests) > 0 {
		chosen := make(map[addr.Virt]bool, len(coldSet))
		for _, base := range coldSet {
			chosen[base] = true
		}
		for _, est := range ests {
			rec.Event(telemetry.Event{
				Kind: telemetry.KindClassified, TimeNs: p.m.Clock(),
				Page: est.Base, Rate: est.Rate, Cold: chosen[est.Base],
			})
		}
	}
	for _, base := range coldSet {
		if err := p.demote(base); err != nil {
			return err
		}
	}
	return nil
}

// demote moves a classified-cold huge page down one tier; with the poison
// tracker the machine arms PMD-grain monitoring (which doubles as the
// slow-memory emulation). Failures — destination pressure or injected
// faults — are retried and then quarantined rather than aborting the run.
func (p *ThresholdPolicy) demote(base addr.Virt) error {
	_, err := p.DemoteForCapacity(base)
	return err
}

// DemoteForCapacity demotes one top-tier page through the normal placement
// machinery (retry/quarantine, cold-set membership, tracker notification)
// and reports whether the page actually moved. The fleet arbiter uses it to
// squeeze a tenant under a shrunken DRAM grant; the page joins the cold set
// so the §3.5 corrector can bring it back if it turns out hot.
func (p *ThresholdPolicy) DemoteForCapacity(base addr.Virt) (bool, error) {
	handled, err := p.mv.attemptMove(base, func() error {
		_, err := p.m.Demote(base)
		return err
	})
	if err != nil {
		return false, err
	}
	if handled {
		p.mv.demoteFailures.Inc()
		return false, nil
	}
	p.tr.NotePlaced(base)
	p.cold[base] = true
	p.mv.demotions.Inc()
	return true, nil
}

// MeasuredColdRate returns the aggregate measured access rate to the cold
// set from the most recent correction pass, in accesses/sec.
func (p *ThresholdPolicy) MeasuredColdRate() float64 { return p.lastColdRate }

// QuarantinedBases returns the currently-quarantined page bases in address
// order (including lazily-unexpired entries).
func (p *ThresholdPolicy) QuarantinedBases() []addr.Virt { return p.mv.quarantinedBases() }
