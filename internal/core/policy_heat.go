package core

import (
	"fmt"
	"math"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/sim"
)

// Heat policy defaults, as fractions of the cgroup's target slow-access
// rate. With the default half-life (two sampling periods) a steady access
// rate r settles at heat ≈ 3.4·r, so the promotion watermark (1.0·target)
// fires for cold pages sustaining roughly 0.3·target and the demotion
// watermark (0.1·target) catches top-tier pages below roughly 0.03·target.
const (
	defaultPromoteFraction = 1.0
	defaultDemoteFraction  = 0.1
	defaultHalfLifePeriods = 2
	// maxHeatFactor bounds accumulated heat at this multiple of the
	// target rate — the "heat is bounded" invariant.
	maxHeatFactor = 1000
)

// HeatPolicy is an age/heat placement rule in the memtierd style: every
// page carries a heat score that decays exponentially with idle time and is
// recharged by measured access rate, and placement is hysteresis between
// two watermarks — cold pages whose heat climbs above the promotion
// watermark come up, top-tier pages whose heat decays below the (strictly
// lower) demotion watermark go down. The watermark gap plus a
// moved-this-tick guard guarantee a page never promotes and demotes within
// one sampling period.
//
// Unlike the threshold policy it needs no aggregate rate budget, so it
// composes with binary trackers (idlebit, softdirty) whose rate ladders
// would make a cumulative budget mostly meaningless.
type HeatPolicy struct {
	ledger

	// PromoteFraction and DemoteFraction position the watermarks as
	// fractions of the target slow-access rate; PromoteFraction must stay
	// strictly above DemoteFraction (hysteresis). Zero values select the
	// defaults at Attach.
	PromoteFraction float64
	DemoteFraction  float64
	// HalfLifeNs is the heat half-life; zero selects two sampling periods
	// at Attach.
	HalfLifeNs int64

	heat map[addr.Virt]float64

	// moved guards single-tick oscillation: a page migrated in this
	// tick's Correct phase is not a candidate in its Place phase (and
	// vice versa). Cleared in EndPeriod.
	moved map[addr.Virt]bool

	// lastInterval carries the tick's measurement interval from Correct
	// (which receives it) to Place (which does not).
	lastInterval float64
}

// NewHeatPolicy builds the heat policy with default watermarks.
func NewHeatPolicy() *HeatPolicy {
	return &HeatPolicy{
		ledger: newLedger(),
		heat:   make(map[addr.Virt]float64),
		moved:  make(map[addr.Virt]bool),
	}
}

// Name implements Policy.
func (p *HeatPolicy) Name() string { return "heat" }

// StateBytes implements Policy: the ledger, plus one entry per page ever
// estimated in the heat map and one per page moved this period.
func (p *HeatPolicy) StateBytes() uint64 {
	return p.stateBytes() + uint64(len(p.heat))*16 + uint64(len(p.moved))*16
}

// Attach implements Policy.
func (p *HeatPolicy) Attach(m *sim.Machine, g *cgroup.Group, tr Tracker) error {
	p.attach(m, g, tr)
	if p.PromoteFraction == 0 {
		p.PromoteFraction = defaultPromoteFraction
	}
	if p.DemoteFraction == 0 {
		p.DemoteFraction = defaultDemoteFraction
	}
	if p.HalfLifeNs == 0 {
		p.HalfLifeNs = defaultHalfLifePeriods * g.Params().SamplePeriodNs
	}
	if p.PromoteFraction <= p.DemoteFraction {
		return fmt.Errorf("core: heat policy watermarks inverted (promote %.3g ≤ demote %.3g)",
			p.PromoteFraction, p.DemoteFraction)
	}
	return nil
}

// EndPeriod implements Policy.
func (p *HeatPolicy) EndPeriod() {
	p.ledger.EndPeriod()
	clear(p.moved)
}

// Heat returns the page's current heat score (for inspection and tests).
func (p *HeatPolicy) Heat(base addr.Virt) float64 { return p.heat[base] }

// maxHeat bounds the accumulated score.
func (p *HeatPolicy) maxHeat() float64 {
	return maxHeatFactor * p.group.Params().TargetSlowAccessRate()
}

// DecayFactor returns the multiplicative heat decay over an idle stretch of
// dtSec seconds: 2^(-dt/halfLife). It is monotonically non-increasing in
// dtSec and never exceeds 1.
func (p *HeatPolicy) DecayFactor(dtSec float64) float64 {
	if dtSec <= 0 {
		return 1
	}
	half := float64(p.HalfLifeNs) / 1e9
	if half <= 0 {
		return 0
	}
	return math.Exp2(-dtSec / half)
}

// bump applies one interval's measurement to a page's heat: decay the old
// score over the interval, add the measured rate, clamp to the bound.
func (p *HeatPolicy) bump(base addr.Virt, rate, dtSec float64) {
	h := p.heat[base]*p.DecayFactor(dtSec) + rate
	if max := p.maxHeat(); h > max {
		h = max
	}
	p.heat[base] = h
}

// watermarks resolves the current promotion/demotion heat thresholds.
func (p *HeatPolicy) watermarks() (promote, demote float64) {
	target := p.group.Params().TargetSlowAccessRate()
	return p.PromoteFraction * target, p.DemoteFraction * target
}

// Correct implements Policy: measure the cold set, recharge heats, and
// promote pages whose heat crossed the promotion watermark — hottest
// first, so a full top tier serves the strongest candidates.
func (p *HeatPolicy) Correct(intervalSec float64) error {
	p.lastInterval = intervalSec
	promoteWM, _ := p.watermarks()
	var cands []Measured
	for _, c := range p.measureCold(intervalSec) {
		p.bump(c.Base, c.Rate, intervalSec)
		if p.isQuarantined(c.Base) || p.moved[c.Base] {
			continue
		}
		if p.heat[c.Base] >= promoteWM {
			cands = append(cands, Measured{Base: c.Base, Rate: p.heat[c.Base]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Rate != cands[j].Rate {
			return cands[i].Rate > cands[j].Rate
		}
		return cands[i].Base < cands[j].Base
	})
	for _, c := range cands {
		p.classified(c.Base, c.Rate, false)
	}
	for _, c := range cands {
		moved, err := p.promote(c.Base)
		if err != nil {
			return err
		}
		if moved {
			p.moved[c.Base] = true
		}
	}
	return nil
}

// Place implements Policy: recharge top-tier heats from this interval's
// estimates and demote pages whose heat decayed below the demotion
// watermark — coldest first. Pages promoted earlier this tick are immune
// (no single-tick oscillation), as are quarantined pages.
func (p *HeatPolicy) Place(ests []Estimate) error {
	dt := p.lastInterval
	if dt <= 0 {
		dt = float64(p.group.Params().SamplePeriodNs) / 1e9
	}
	_, demoteWM := p.watermarks()
	var cands []Estimate
	for _, est := range ests {
		p.bump(est.Base, est.Rate, dt)
		if p.moved[est.Base] || !p.placeable(est.Base) {
			continue
		}
		if p.heat[est.Base] <= demoteWM {
			cands = append(cands, Estimate{Base: est.Base, Rate: p.heat[est.Base]})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Rate != cands[j].Rate {
			return cands[i].Rate < cands[j].Rate
		}
		return cands[i].Base < cands[j].Base
	})
	chosen := make([]addr.Virt, len(cands))
	for i, c := range cands {
		chosen[i] = c.Base
	}
	p.placeVerdicts(ests, chosen)
	for _, base := range chosen {
		if _, err := p.DemoteForCapacity(base); err != nil {
			return err
		}
	}
	return nil
}

// DemoteForCapacity implements Policy: the shared demotion, plus the
// moved-this-tick mark so a squeezed page cannot promote in the same period.
func (p *HeatPolicy) DemoteForCapacity(base addr.Virt) (bool, error) {
	moved, err := p.ledger.DemoteForCapacity(base)
	if moved {
		p.moved[base] = true
	}
	return moved, err
}
