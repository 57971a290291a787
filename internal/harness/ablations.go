package harness

import (
	"fmt"
	"math"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/counter"
	"thermostat/internal/pagetable"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// tuneGroup returns an engine hook that edits the run's group parameters.
func tuneGroup(edit func(*cgroup.Params)) func(*cgroup.Group, *core.Engine) {
	return func(g *cgroup.Group, _ *core.Engine) {
		p := g.Params()
		edit(&p)
		if err := g.Update(p); err != nil {
			panic(err)
		}
	}
}

// toggle is a two-arm study: the paper's choice on, then off.
func toggle(on, off string, plan func(on bool) Plan) []arm {
	return []arm{{name: on, plan: plan(true)}, {name: off, plan: plan(false)}}
}

// rotatorSpec is a working-set-change workload: two equal regions swap hot
// and cold roles periodically, so yesterday's cold pages become today's
// working set.
func rotatorSpec(periodNs int64) workload.Spec {
	return workload.Spec{
		Name:      "rotator",
		ComputeNs: 2500,
		Segments: []workload.SegmentSpec{
			{Name: "a", Bytes: 4 << 30, Weight: 0.999, Picker: workload.Uniform{}, WriteFrac: 0.1},
			{Name: "b", Bytes: 4 << 30, Weight: 0.001, Picker: workload.Uniform{}},
		},
		Rotate: &workload.RotateSpec{PeriodNs: periodNs, SegmentA: "a", SegmentB: "b"},
	}
}

// ablations are the design-choice studies of DESIGN.md's index, one row
// each: A1-A6 run Thermostat arms at the 3% target against the all-DRAM
// baseline, A7 is the §6.1 counters row.
//
//   - A1 sweeps K, the per-huge-page poison budget (§3.2's "at most 50"):
//     small K is cheap but noisy, large K costs more faults for little
//     extra accuracy.
//   - A2 sweeps the fraction of huge pages sampled per interval (§3.2's
//     5%): more sampling reacts faster but costs more splits and faults.
//   - A3 compares the §3.2 two-step refinement (poison only accessed
//     children) against uniform child selection.
//   - A4 is what the §3.5 corrector is worth: under a working set rotating
//     every third of the run, disabling it strands newly hot pages in slow
//     memory and the slowdown blows through the target.
//   - A5 puts BadgerTrap in the guest (the paper's choice) or the host,
//     where every poison fault costs a vmexit (§4.2).
//   - A6 compares the paper's fault-based slow-memory emulation against a
//     device-latency model of real slow memory.
func ablations(opt Options) ([]row, render) {
	cassandra, aerospike := workload.Cassandra(workload.WriteHeavy), workload.Aerospike(workload.ReadHeavy)
	var budget, fraction, mode []arm
	for _, k := range []int{10, 25, 50, 100} {
		budget = append(budget, arm{name: fmt.Sprintf("K=%d", k),
			plan: Plan{Engine: tuneGroup(func(p *cgroup.Params) { p.MaxPoisonPerHuge = k })}})
	}
	for _, f := range []float64{0.01, 0.05, 0.20} {
		fraction = append(fraction, arm{name: fmt.Sprintf("f=%.0f%%", f*100),
			plan: Plan{Engine: tuneGroup(func(p *cgroup.Params) { p.SampleFraction = f })}})
	}
	for _, m := range []sim.SlowMemMode{sim.EmulatedFault, sim.Device} {
		mode = append(mode, arm{name: m.String(), plan: Plan{Config: func(cfg *sim.Config) { cfg.Mode = m }}})
	}
	studies := []struct {
		name, title string
		spec        workload.Spec
		arms        []arm
	}{
		{"ablation-k", "Ablation: poison budget K per sampled huge page (" + cassandra.Name + ")", cassandra, budget},
		{"ablation-fraction", "Ablation: sample fraction per scan interval (" + cassandra.Name + ")", cassandra, fraction},
		{"ablation-prefilter", "Ablation: Accessed-bit pre-filter before poisoning (" + aerospike.Name + ")", aerospike,
			toggle("accessed-bit prefilter", "uniform children (naive)", func(on bool) Plan {
				return Plan{Engine: func(_ *cgroup.Group, e *core.Engine) { e.SetPrefilter(on) }}
			})},
		{"ablation-correction", "Ablation: §3.5 mis-classification correction under working-set rotation",
			rotatorSpec(opt.Scale.DurationNs / 3),
			toggle("corrector on", "corrector off", func(on bool) Plan {
				return Plan{Engine: func(_ *cgroup.Group, e *core.Engine) { e.SetCorrection(on) }}
			})},
		{"ablation-trap", "Ablation: BadgerTrap placement (" + cassandra.Name + ")", cassandra,
			toggle("trap in guest", "trap in host (vmexit per fault)", func(guest bool) Plan {
				return Plan{Config: func(cfg *sim.Config) { cfg.VM.TrapInHost = !guest }}
			})},
		{"ablation-slowmode", "Ablation: slow-memory model (" + cassandra.Name + ")", cassandra, mode},
	}
	var rows []row
	for _, s := range studies {
		r := row{spec: s.spec, sc: opt.Scale, arms: []arm{baseline}}
		for _, a := range s.arms {
			a.plan.SlowdownPct = 3
			r.arms = append(r.arms, a)
		}
		rows = append(rows, r)
	}
	counters, countersTable := counters(opt)
	rows = append(rows, counters)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		var out []Output
		for i, s := range studies {
			out = append(out, Output{Name: s.name, Table: ablationTable(s.title, rows[i], outs[i])})
		}
		return append(out, Output{Name: "ablation-counters", Table: countersTable(outs[len(studies)])}), nil
	}
}

// ablationTable scores each arm of a study row against its baseline.
func ablationTable(title string, r row, outs []*Outcome) *report.Table {
	t := report.NewTable(title,
		"config", "cold_fraction_pct", "slowdown_pct", "poison_faults", "corrections")
	for j, a := range r.arms[1:] {
		res := outs[j+1].Result
		t.AddF(a.name, res.MeanColdFraction(r.sc.WarmupNs)*100, sim.Slowdown(outs[0].Result, res)*100,
			res.Metrics.PoisonFaults, outs[j+1].Engine.Stats().Promotions)
	}
	return t
}

// counters is the §6.1 head-to-head: BadgerTrap (TLB-miss proxy, ~1us per
// event) vs the proposed CM bit (exact, cheap) vs PEBS sampling (cheap,
// resolution-limited), each a probe over redis against an uninstrumented
// reference. Every arm counts ground truth and runs a third of the
// profile's duration with no warm-up. It returns the row and the table of
// its outcomes: mean relative error of the per-page counts against true LLC
// misses, and the mechanism's own overhead.
func counters(opt Options) (row, func([]*Outcome) *report.Table) {
	probes := []*probe{
		{name: "badgertrap", mk: func(m *sim.Machine) counter.Backend { return counter.NewBadgerTrap(m) }},
		{name: "cm-bit", mk: func(m *sim.Machine) counter.Backend { return counter.NewCMBit(m) }},
		{name: "pebs", mk: func(m *sim.Machine) counter.Backend { return counter.NewPEBS(m) }},
	}
	sc := opt.Scale
	sc.DurationNs, sc.WarmupNs = sc.DurationNs/3, 0
	truth := Plan{Machine: (*sim.Machine).EnablePageCounts}
	r := row{spec: workload.Redis(), sc: sc, arms: []arm{{name: "baseline", plan: truth}}}
	for _, p := range probes {
		p.Interval = sc.PeriodNs
		plan := truth
		plan.Policy = p
		r.arms = append(r.arms, arm{name: p.name, plan: plan})
	}
	return r, func(outs []*Outcome) *report.Table {
		t := report.NewTable("Ablation: §6.1 access-counting mechanisms (redis, 1/8 of pages armed)",
			"backend", "mean_rel_error", "overhead_pct")
		for i, p := range probes {
			t.AddF(p.name, p.meanRelError(outs[i+1].Machine.PageCounts()),
				(outs[0].Result.Throughput/outs[i+1].Result.Throughput-1)*100)
		}
		return t
	}
}

// probe is a counters arm's policy: it places nothing, and on Attach it
// installs its backend and arms every 8th mapped 2MB page in address order.
// For redis that is every 8th keyspace page: the keyspace is mapped first,
// and the one config-file page after it sits at index 35, 138 or 551 (tiny,
// bench, repro), never a multiple of 8.
type probe struct {
	sim.NullPolicy
	name  string
	mk    func(*sim.Machine) counter.Backend
	b     counter.Backend
	armed []addr.Virt
}

func (p *probe) Name() string { return p.name }

func (p *probe) Attach(m *sim.Machine) error {
	p.b = p.mk(m)
	var pages []addr.Virt
	m.PageTable().Scan(func(base addr.Virt, _ *pagetable.PTE, _ pagetable.Level) {
		if b := base.Base2M(); len(pages) == 0 || pages[len(pages)-1] != b {
			pages = append(pages, b)
		}
	})
	for i := 0; i < len(pages); i += 8 {
		if err := p.b.Arm(pages[i]); err != nil {
			return err
		}
		p.armed = append(p.armed, pages[i])
	}
	return nil
}

// meanRelError is the mean relative error of the backend's counts against
// truth, over armed pages with enough traffic for a meaningful ratio.
func (p *probe) meanRelError(truth map[addr.Virt]uint64) float64 {
	var errs []float64
	for _, base := range p.armed {
		if tr := float64(truth[base]); tr >= 50 {
			errs = append(errs, math.Abs(float64(p.b.Count(base))-tr)/tr)
		}
	}
	sort.Float64s(errs)
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	if len(errs) > 0 {
		mean /= float64(len(errs))
	}
	return mean
}

// baselines is the §7 comparison: per app, every placement approach the
// paper discusses — all-DRAM, X-Mem-style profile-guided, kstaled-style
// idle-demote (the naive baseline: place whatever looked idle, with no
// correction and no bound on the slowdown) and Thermostat.
func baselines(opt Options) ([]row, render) {
	var rows []row
	for _, spec := range opt.apps(workload.Cassandra(workload.WriteHeavy), workload.Redis()) {
		rows = append(rows, row{spec: spec, sc: opt.Scale, arms: []arm{
			{name: "all-dram"},
			{name: "profile-guided (X-Mem-like)", plan: Plan{Policy: &profileGuided{spec, opt.Scale, opt.SlowdownPct}}},
			{name: "idle-demote (kstaled-like)", plan: Plan{Policy: &core.IdleDemote{
				Interval: opt.Scale.PeriodNs, IdleScans: 4, NoPromote: true,
			}}},
			{name: "thermostat", plan: Plan{SlowdownPct: opt.SlowdownPct}},
		}})
	}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		var out []Output
		for i, r := range rows {
			t := report.NewTable("Placement policy comparison ("+r.spec.Name+")",
				"policy", "cold_fraction_pct", "slowdown_pct")
			for j, a := range r.arms {
				res := outs[i][j].Result
				t.AddF(a.name, res.MeanColdFraction(r.sc.WarmupNs)*100, sim.Slowdown(outs[i][0].Result, res)*100)
			}
			out = append(out, Output{Name: "baselines-" + r.spec.Name, Table: t})
		}
		return out, nil
	}
}
