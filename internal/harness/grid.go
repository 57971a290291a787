package harness

import (
	"fmt"
	"io"
	"reflect"
	"slices"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/obsv"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// Options configures an experiment.
type Options struct {
	// Scale is the size/time transform (default the repro profile).
	Scale Scale
	// Apps restricts the application set (default: the experiment's own,
	// which is all six paper applications for most).
	Apps []workload.Spec
	// SlowdownPct is the Thermostat target (default 3).
	SlowdownPct float64
	// Workers bounds the goroutines fanning independent runs out: 0 uses
	// every core (GOMAXPROCS), 1 runs the exact old serial path. Results
	// are bit-for-bit identical at any setting — each run owns its own
	// machine and seeded RNG (see DESIGN.md's determinism contract).
	Workers int
	// Publisher, when non-nil, tees the recorder stream of every run an
	// experiment simulates, grid arm or fleet, into the live observability
	// plane (see internal/obsv). Strictly read-side: exports stay
	// byte-identical with or without it.
	Publisher *obsv.Publisher
}

func (o Options) withDefaults() Options {
	if o.Scale.Div == 0 {
		o.Scale = repro()
	}
	if o.SlowdownPct == 0 {
		o.SlowdownPct = 3
	}
	return o
}

// apps is the application set: Apps, else def, else all six.
func (o Options) apps(def ...workload.Spec) []workload.Spec {
	switch {
	case len(o.Apps) > 0:
		return o.Apps
	case len(def) > 0:
		return def
	}
	return workload.All()
}

// arm is one column of a row: a name and the Plan it runs. Every experiment
// arm is one Plan; a shape that needs more than the machine, app and policy
// Assemble builds (the §6.1 counters' probes, the X-Mem baseline's profiling
// run) is a sim.Policy whose Attach does it.
type arm struct {
	name string
	plan Plan
}

// row is one line of an experiment: an app at a scale and the arms that run
// it, its baseline first when it has one.
type row struct {
	spec workload.Spec
	sc   Scale
	arms []arm
}

// baseline is the all-DRAM arm paired rows lead with.
var baseline = arm{name: "baseline"}

// render turns a grid's outcomes, in the shape of its rows, into output.
type render func(outs [][]*Outcome) ([]Output, error)

// simulation is one run a RunExperiments call plans: the spec, scale and
// Plan of the arm that first names it, labelled after that arm, its outcome
// once run, and how many planned arms have yet to read it.
type simulation struct {
	spec    workload.Spec
	sc      Scale
	plan    Plan
	label   string
	readers int
	out     *Outcome
}

// simulations holds the runs one RunExperiments call plans.
type simulations []*simulation

// plan returns the simulation behind each arm of rows, in the rows' shape.
// An arm without a Policy object shares the simulation of an earlier arm
// when their specs and Plans are reflect.DeepEqual and their scales ==;
// DeepEqual is false for any non-nil func field, so an arm with a hook, like
// one with a Policy its render reads, always runs on its own.
func (s *simulations) plan(rows []row) [][]*simulation {
	grid := make([][]*simulation, len(rows))
	for i, r := range rows {
		for _, a := range r.arms {
			var sm *simulation
			if a.plan.Policy == nil {
				for _, prev := range *s {
					if prev.sc == r.sc && reflect.DeepEqual(prev.spec, r.spec) && reflect.DeepEqual(prev.plan, a.plan) {
						sm = prev
						break
					}
				}
			}
			if sm == nil {
				sm = &simulation{spec: r.spec, sc: r.sc, plan: a.plan, label: r.spec.Name + "/" + a.name}
				*s = append(*s, sm)
			}
			sm.readers++
			grid[i] = append(grid[i], sm)
		}
	}
	return grid
}

// runGrid runs the simulations of one planned grid that have not run yet on
// internal/pool as one flat Map, so rows share the worker budget, and
// returns the grid's outcomes in its shape. A simulation this grid reads
// last lets its outcome go.
func runGrid(opt Options, grid [][]*simulation) ([][]*Outcome, error) {
	var todo simulations
	var tasks []pool.Task[*Outcome]
	for _, r := range grid {
		for _, sm := range r {
			if sm.out == nil && !slices.Contains(todo, sm) {
				todo = append(todo, sm)
				tasks = append(tasks, pool.Task[*Outcome]{Label: sm.label,
					Run: func() (*Outcome, error) { return sm.run(opt.Publisher) }})
			}
		}
	}
	res, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, err
	}
	for i, sm := range todo {
		sm.out = res[i]
	}
	outs := make([][]*Outcome, len(grid))
	for i, r := range grid {
		for _, sm := range r {
			outs[i] = append(outs[i], sm.out)
			if sm.readers--; sm.readers == 0 {
				sm.out = nil // no planned arm reads it after this one
			}
		}
	}
	return outs, nil
}

// run simulates sm, teed into pub's live plane when pub is non-nil: the
// machine's collector, if its Plan installs one, keeps recording beneath
// the tee and stays the outcome's Telemetry.
func (sm *simulation) run(pub *obsv.Publisher) (*Outcome, error) {
	plan := sm.plan
	if pub == nil {
		return Run(sm.spec, sm.sc, plan)
	}
	var col *telemetry.Collector
	var census func(string, *core.Engine)
	config, engine := plan.Config, plan.Engine
	plan.Config = func(cfg *sim.Config) {
		if config != nil {
			config(cfg)
		}
		col, _ = cfg.Recorder.(*telemetry.Collector)
		cfg.Recorder, census = Observe(pub, sm.label, col)
	}
	plan.Engine = func(g *cgroup.Group, eng *core.Engine) {
		if engine != nil {
			engine(g, eng)
		}
		census(sm.label, eng)
	}
	out, err := Run(sm.spec, sm.sc, plan)
	if err != nil {
		return nil, err
	}
	out.Telemetry = col
	return out, nil
}

// Output is one piece of an experiment's output, in print order. Text is
// printed as is; a Table is printed (Text, when set, stands in for it) and
// is Name.csv under -csv; SVG is Name.svg under -svg; File is a committed
// result, Name under -results.
type Output struct {
	Name  string
	Text  string
	Table *report.Table
	SVG   func(io.Writer) error
	File  []byte
}

// Experiment is one entry of the repro table (DESIGN.md's experiment
// index). A grid experiment is data: grid builds its rows for the options
// and the render of their outcomes. The fleet night and the scaling sweep
// run by hand instead.
type Experiment struct {
	Name string
	// InAll marks the paper's evaluation, which 'repro -exp all' runs.
	InAll bool

	grid func(Options) ([]row, render)
	run  func(Options) ([]Output, error)
}

// RunExperiments runs xs in order and hands each one's outputs to emit as
// soon as it finishes. Every grid is planned before the first runs, so an
// arm identical to an earlier one (see simulations.plan) is simulated once
// for the whole call, and its outcome is kept until the last arm that reads
// it has rendered.
func RunExperiments(opt Options, xs []Experiment, emit func(name string, outs []Output)) error {
	opt = opt.withDefaults()
	var s simulations
	grids := make([][][]*simulation, len(xs))
	renders := make([]render, len(xs))
	for i, x := range xs {
		if x.grid != nil {
			var rows []row
			rows, renders[i] = x.grid(opt)
			grids[i] = s.plan(rows)
		}
	}
	for i, x := range xs {
		var outs []Output
		var err error
		if x.run != nil {
			outs, err = x.run(opt)
		} else {
			var res [][]*Outcome
			if res, err = runGrid(opt, grids[i]); err == nil {
				outs, err = renders[i](res)
			}
		}
		if err != nil {
			return fmt.Errorf("harness: %s: %w", x.Name, err)
		}
		// A render and the Policies of its rows hold their runs' machines.
		grids[i], renders[i] = nil, nil
		emit(x.Name, outs)
	}
	return nil
}

// Experiments is the repro table, in the order repro runs it whatever order
// -exp names them in.
var Experiments = []Experiment{
	{Name: "fig1", InAll: true, grid: fig1},
	{Name: "naive", InAll: true, grid: naive},
	{Name: "fig2", InAll: true, grid: fig2},
	{Name: "table1", InAll: true, grid: table1},
	{Name: "table2", InAll: true, grid: table2},
	{Name: "fig3", InAll: true, grid: fig3},
	{Name: "colddata", InAll: true, grid: coldData},
	{Name: "fig11", InAll: true, grid: fig11},
	{Name: "table3", InAll: true, grid: table3},
	{Name: "table4", InAll: true, grid: table4},
	{Name: "baselines", InAll: true, grid: baselines},
	{Name: "ablations", InAll: true, grid: ablations},
	// This repo's extensions, not the paper's evaluation: the tracker ×
	// policy head-to-head, the seeded datacenter night, the simulator's own
	// scaling sweep and the DRAM/CXL/NVM hierarchy.
	{Name: "matrix", grid: matrix},
	{Name: "fleet", run: fleetNight},
	{Name: "scale", run: scaleSweep},
	{Name: "ntier", grid: ntier},
}
