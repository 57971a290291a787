package harness

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/core"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// staticPlacement demotes a fixed page set at attach time and never adapts —
// the X-Mem-style profile-guided flow of §7: an offline profiling run
// decides placement, the production run executes it.
type staticPlacement struct {
	interval int64
	plan     []addr.Virt
	placed   int
	// missing counts plan pages that did not exist at placement time —
	// the profiling run saw allocations (growth) the production run has
	// not made yet, one of the representativeness problems §7 raises.
	missing int
}

func (p *staticPlacement) Name() string      { return "profile-guided" }
func (p *staticPlacement) IntervalNs() int64 { return p.interval }

func (p *staticPlacement) Attach(m *sim.Machine) error {
	if p.interval <= 0 {
		return fmt.Errorf("harness: staticPlacement needs an interval")
	}
	for _, base := range p.plan {
		if _, _, ok := m.PageTable().Lookup(base); !ok {
			p.missing++
			continue
		}
		if _, err := m.Demote(base); err != nil {
			return fmt.Errorf("harness: static demotion of %s: %w", base, err)
		}
		p.placed++
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

// BaselineRow is one policy's outcome in the baseline comparison.
type BaselineRow struct {
	Policy       string
	ColdFraction float64
	Slowdown     float64
}

// CompareBaselines runs one application under every placement approach the
// paper discusses: all-DRAM, X-Mem-style profile-guided, kstaled-style
// idle-demote, and Thermostat.
func CompareBaselines(spec workload.Spec, opt Options) ([]BaselineRow, *report.Table, error) {
	opt = opt.withDefaults()
	sc := opt.Scale

	// The four arms are independent runs (profile-guided bundles its own
	// profiling pass); fan them out and assemble rows after the merge.
	outs, err := pool.Map(opt.Workers, []pool.Task[*Outcome]{
		{Label: "baselines/" + spec.Name + "/all-dram", Run: func() (*Outcome, error) {
			return RunBaseline(spec, sc)
		}},
		{Label: "baselines/" + spec.Name + "/profile-guided", Run: func() (*Outcome, error) {
			return RunProfileGuided(spec, sc, opt.SlowdownPct)
		}},
		// The paper's naive baseline: place whatever looked idle, with no
		// correction mechanism and no way to bound the resulting slowdown.
		{Label: "baselines/" + spec.Name + "/idle-demote", Run: func() (*Outcome, error) {
			return Run(spec, sc, Plan{Policy: &core.IdleDemote{
				Interval: sc.PeriodNs, IdleScans: 4, NoPromote: true,
			}})
		}},
		{Label: "baselines/" + spec.Name + "/thermostat", Run: func() (*Outcome, error) {
			return Run(spec, sc, Plan{SlowdownPct: opt.SlowdownPct})
		}},
	})
	if err != nil {
		return nil, nil, err
	}
	base, pg, idle, th := outs[0], outs[1], outs[2], outs[3]
	rows := []BaselineRow{
		{Policy: "all-dram", ColdFraction: 0, Slowdown: 0},
		{
			Policy:       "profile-guided (X-Mem-like)",
			ColdFraction: pg.Result.MeanColdFraction(sc.WarmupNs),
			Slowdown:     sim.Slowdown(base.Result, pg.Result),
		},
		{
			Policy:       "idle-demote (kstaled-like)",
			ColdFraction: idle.Result.MeanColdFraction(sc.WarmupNs),
			Slowdown:     sim.Slowdown(base.Result, idle.Result),
		},
		{
			Policy:       "thermostat",
			ColdFraction: th.Result.MeanColdFraction(sc.WarmupNs),
			Slowdown:     sim.Slowdown(base.Result, th.Result),
		},
	}

	t := report.NewTable("Placement policy comparison ("+spec.Name+")",
		"policy", "cold_fraction_pct", "slowdown_pct")
	for _, r := range rows {
		t.AddF(r.Policy, r.ColdFraction*100, r.Slowdown*100)
	}
	return rows, t, nil
}
