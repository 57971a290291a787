package harness

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// staticPlacement demotes a fixed page set at attach time and never adapts —
// the X-Mem-style profile-guided flow of §7: an offline profiling run
// decides placement, the production run executes it.
type staticPlacement struct {
	interval int64
	plan     []addr.Virt
}

func (p *staticPlacement) Name() string      { return "profile-guided" }
func (p *staticPlacement) IntervalNs() int64 { return p.interval }

func (p *staticPlacement) Attach(m *sim.Machine) error {
	for _, base := range p.plan {
		// A plan page not mapped yet is skipped: the profiling run saw
		// allocations (growth) the production run has not made, one of the
		// representativeness problems §7 raises.
		if _, _, ok := m.PageTable().Lookup(base); !ok {
			continue
		}
		if _, err := m.Demote(base); err != nil {
			return fmt.Errorf("harness: static demotion of %s: %w", base, err)
		}
	}
	return nil
}

func (p *staticPlacement) Tick(*sim.Machine, int64) error { return nil }

func (p *staticPlacement) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, nil)
}

// RunProfileGuided reproduces the profiling-based placement flow the paper
// contrasts itself with (§7, X-Mem): run the application once with the
// simulator's ground-truth page access counting (standing in for a Pin
// trace), pick the coldest pages whose aggregate rate fits the same budget
// Thermostat uses, then run production with that static placement.
//
// The profiling run sees only the first third of the execution, so
// workloads whose behaviour changes (growth, hot-set drift) expose the
// approach's weakness — no representative profile, no adaptation.
func RunProfileGuided(spec workload.Spec, sc Scale, slowdownPct float64) (*Outcome, error) {
	// Profiling run: all-DRAM, ground-truth counting, first third, no warm-up.
	prof := sc
	prof.DurationNs = sc.DurationNs / 3
	prof.WarmupNs = 0
	p, err := Run(spec, prof, Plan{Machine: (*sim.Machine).EnablePageCounts})
	if err != nil {
		return nil, fmt.Errorf("harness: profiling run: %w", err)
	}
	counts := p.Machine.PageCounts()
	profSec := float64(prof.DurationNs) / 1e9

	// Build per-huge-page estimates over everything mapped at profile end.
	var ests []core.Estimate
	for _, reg := range p.App.Regions() {
		reg.Each2M(func(base addr.Virt) {
			ests = append(ests, core.Estimate{
				Base: base,
				Rate: float64(counts[base]) / profSec,
			})
		})
	}
	g, err := sc.Group(slowdownPct)
	if err != nil {
		return nil, err
	}
	plan := core.SelectColdSet(ests, g.Params().TargetSlowAccessRate())

	// Production run with static placement.
	return Run(spec, sc, Plan{Policy: &staticPlacement{interval: sc.PeriodNs, plan: plan}})
}
