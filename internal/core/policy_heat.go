package core

import (
	"math"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/sim"
)

// Heat policy watermarks, as fractions of the cgroup's target slow-access
// rate, and its half-life. With a half-life of two sampling periods a
// steady access rate r settles at heat ≈ 3.4·r, so the promotion watermark
// (1.0·target) fires for cold pages sustaining roughly 0.3·target and the
// demotion watermark (0.1·target) catches top-tier pages below roughly
// 0.03·target. Promotion stays strictly above demotion (hysteresis).
const (
	promoteFraction = 1.0
	demoteFraction  = 0.1
	halfLifePeriods = 2
	// maxHeatFactor bounds accumulated heat at this multiple of the
	// target rate — the "heat is bounded" invariant.
	maxHeatFactor = 1000
)

// heatPolicy is an age/heat placement rule in the memtierd style: every
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
type heatPolicy struct {
	ledger

	// halfLifeNs is the heat half-life: halfLifePeriods sampling periods
	// at Attach.
	halfLifeNs int64

	heat map[addr.Virt]float64

	// moved guards single-tick oscillation: a page migrated in this
	// tick's Correct phase is not a candidate in its Place phase (and
	// vice versa). Cleared in EndPeriod.
	moved map[addr.Virt]bool

	// lastInterval carries the tick's measurement interval from Correct
	// (which receives it) to Place (which does not).
	lastInterval float64
}

// newHeatPolicy builds the heat policy; Attach sets its half-life.
func newHeatPolicy() *heatPolicy {
	return &heatPolicy{
		ledger: newLedger(),
		heat:   make(map[addr.Virt]float64),
		moved:  make(map[addr.Virt]bool),
	}
}

// Name implements Policy.
func (p *heatPolicy) Name() string { return "heat" }

// StateBytes implements Policy: the ledger, plus one entry per page ever
// estimated in the heat map and one per page moved this period.
func (p *heatPolicy) StateBytes() uint64 {
	return p.stateBytes() + uint64(len(p.heat))*16 + uint64(len(p.moved))*16
}

// Attach implements Policy.
func (p *heatPolicy) Attach(m *sim.Machine, g *cgroup.Group, tr Tracker) error {
	p.attach(m, g, tr)
	p.halfLifeNs = halfLifePeriods * g.Params().SamplePeriodNs
	return nil
}

// EndPeriod implements Policy.
func (p *heatPolicy) EndPeriod() {
	p.ledger.EndPeriod()
	clear(p.moved)
}

// maxHeat bounds the accumulated score.
func (p *heatPolicy) maxHeat() float64 {
	return maxHeatFactor * p.group.Params().TargetSlowAccessRate()
}

// decayFactor returns the multiplicative heat decay over an idle stretch of
// dtSec seconds: 2^(-dt/halfLife). It is monotonically non-increasing in
// dtSec and never exceeds 1.
func (p *heatPolicy) decayFactor(dtSec float64) float64 {
	if dtSec <= 0 {
		return 1
	}
	half := float64(p.halfLifeNs) / 1e9
	if half <= 0 {
		return 0
	}
	return math.Exp2(-dtSec / half)
}

// bump applies one interval's measurement to a page's heat: decay the old
// score over the interval, add the measured rate, clamp to the bound.
func (p *heatPolicy) bump(base addr.Virt, rate, dtSec float64) {
	h := p.heat[base]*p.decayFactor(dtSec) + rate
	if max := p.maxHeat(); h > max {
		h = max
	}
	p.heat[base] = h
}

// watermarks resolves the current promotion/demotion heat thresholds.
func (p *heatPolicy) watermarks() (promote, demote float64) {
	target := p.group.Params().TargetSlowAccessRate()
	return promoteFraction * target, demoteFraction * target
}

// Correct implements Policy: measure the cold set, recharge heats, and
// promote pages whose heat crossed the promotion watermark — hottest
// first, so a full top tier serves the strongest candidates.
func (p *heatPolicy) Correct(intervalSec float64) error {
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
func (p *heatPolicy) Place(ests []Estimate) error {
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
func (p *heatPolicy) DemoteForCapacity(base addr.Virt) (bool, error) {
	moved, err := p.ledger.DemoteForCapacity(base)
	if moved {
		p.moved[base] = true
	}
	return moved, err
}
