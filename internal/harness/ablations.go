package harness

import (
	"fmt"
	"math"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/counter"
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
// resolution-limited), each armed on every 8th huge page of redis's
// keyspace, against an uninstrumented reference. It returns the row and
// the table of its outcomes: mean relative error of the per-page counts
// against true LLC misses, and the mechanism's own overhead.
func counters(opt Options) (row, func([]*Outcome) *report.Table) {
	backends := []struct {
		name string
		mk   func(m *sim.Machine) counter.Backend
	}{
		{"baseline", nil},
		{"badgertrap", func(m *sim.Machine) counter.Backend { return counter.NewBadgerTrap(m) }},
		{"cm-bit", func(m *sim.Machine) counter.Backend { return counter.NewCMBit(m) }},
		{"pebs", func(m *sim.Machine) counter.Backend { return counter.NewPEBS(m, 0) }},
	}
	relErr := make([]float64, len(backends))
	r := row{spec: workload.Redis(), sc: opt.Scale}
	for i, b := range backends {
		r.arms = append(r.arms, arm{name: b.name, run: func(spec workload.Spec, sc Scale) (*Outcome, error) {
			return runCounter(spec, sc, b.mk, &relErr[i])
		}})
	}
	return r, func(outs []*Outcome) *report.Table {
		t := report.NewTable("Ablation: §6.1 access-counting mechanisms (redis, 1/8 of pages armed)",
			"backend", "mean_rel_error", "overhead_pct")
		for i, b := range backends[1:] {
			t.AddF(b.name, relErr[i+1], (outs[0].Result.Throughput/outs[i+1].Result.Throughput-1)*100)
		}
		return t
	}
}

// runCounter is one counters arm, assembled like any run and then driven by
// hand for a third of the run: the backend arms pages between Init and the
// first access, and the loop is raw accesses with nothing ticking. With a
// backend it stores the mean relative error of its counts, over armed pages
// with non-trivial traffic, in relErr.
func runCounter(spec workload.Spec, sc Scale, mk func(*sim.Machine) counter.Backend, relErr *float64) (*Outcome, error) {
	a, err := Assemble(spec, sc, Plan{Machine: (*sim.Machine).EnablePageCounts})
	if err != nil {
		return nil, err
	}
	m, app := a.Machine, a.App
	if err := app.Init(m); err != nil {
		return nil, err
	}
	var armed []addr.Virt
	var b counter.Backend
	if mk != nil {
		b = mk(m)
		i := 0
		app.SegmentRegions("keyspace")[0].Each2M(func(base addr.Virt) {
			if i%8 == 0 {
				if err := b.Arm(base); err != nil {
					panic(err) // the pool reports it as this arm's error
				}
				armed = append(armed, base)
			}
			i++
		})
	}
	start := m.Clock()
	var ops uint64
	for m.Clock()-start < sc.DurationNs/3 {
		v, w := app.Next()
		if _, err := m.Access(v, w); err != nil {
			return nil, err
		}
		m.AdvanceClock(app.ComputeNs())
		ops++
	}
	res := &sim.RunResult{AppName: spec.Name, Ops: ops, DurationNs: m.Clock() - start}
	res.Throughput = float64(ops) * 1e9 / float64(res.DurationNs)
	if b != nil {
		truth := m.PageCounts()
		var errs []float64
		for _, base := range armed {
			tr := float64(truth[base])
			if tr < 50 {
				continue // too little traffic for a meaningful ratio
			}
			errs = append(errs, math.Abs(float64(b.Count(base))-tr)/tr)
		}
		sort.Float64s(errs)
		mean := 0.0
		for _, e := range errs {
			mean += e
		}
		if len(errs) > 0 {
			mean /= float64(len(errs))
		}
		*relErr = mean
	}
	return &Outcome{Spec: spec, Scale: sc, Machine: m, App: app, Result: res}, nil
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
			{name: "profile-guided (X-Mem-like)", run: func(spec workload.Spec, sc Scale) (*Outcome, error) {
				return RunProfileGuided(spec, sc, opt.SlowdownPct)
			}},
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
