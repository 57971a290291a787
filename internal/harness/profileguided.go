package harness

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// profileGuided reproduces the profiling-based placement flow the paper
// contrasts itself with (§7, X-Mem): on Attach it runs the application once
// with the simulator's ground-truth page access counting (standing in for a
// Pin trace), picks the coldest pages whose aggregate rate fits the same
// budget Thermostat uses, and demotes them; it never adapts after that.
//
// The profiling run sees only the first third of the execution, so
// workloads whose behaviour changes (growth, hot-set drift) expose the
// approach's weakness — no representative profile, no adaptation.
type profileGuided struct {
	spec        workload.Spec
	sc          Scale
	slowdownPct float64
}

func (p *profileGuided) Name() string      { return "profile-guided" }
func (p *profileGuided) IntervalNs() int64 { return p.sc.PeriodNs }

func (p *profileGuided) Attach(m *sim.Machine) error {
	// Profiling run: all-DRAM, ground-truth counting, first third, no warm-up.
	prof := p.sc
	prof.DurationNs = p.sc.DurationNs / 3
	prof.WarmupNs = 0
	run, err := Run(p.spec, prof, Plan{Machine: (*sim.Machine).EnablePageCounts})
	if err != nil {
		return fmt.Errorf("harness: profiling run: %w", err)
	}
	counts := run.Machine.PageCounts()
	profSec := float64(prof.DurationNs) / 1e9

	// Per-huge-page estimates over everything mapped at profile end.
	var ests []core.Estimate
	for _, reg := range run.App.Regions() {
		reg.Each2M(func(base addr.Virt) {
			ests = append(ests, core.Estimate{Base: base, Rate: float64(counts[base]) / profSec})
		})
	}
	g, err := p.sc.Group(p.slowdownPct)
	if err != nil {
		return err
	}
	for _, base := range core.SelectColdSet(ests, g.Params().TargetSlowAccessRate()) {
		// A page not mapped yet is skipped: the profiling run saw
		// allocations (growth) this run has not made, one of the
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

func (p *profileGuided) Tick(*sim.Machine, int64) error { return nil }

func (p *profileGuided) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, nil)
}
