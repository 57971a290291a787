package harness

import (
	"io"

	"thermostat/internal/obsv"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/workload"
)

// Options configures an experiment.
type Options struct {
	// Scale is the size/time transform (default Repro()).
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
	// Telemetry, when non-nil, attaches a collector to every RunAll run
	// and exports per-run trace files (Chrome trace + JSONL) under
	// Telemetry.Dir. Traces are in virtual time: byte-identical at any
	// Workers setting.
	Telemetry *TelemetryOptions
	// Publisher, when non-nil, tees every RunAll and fleet run's recorder
	// stream into the live observability plane (see internal/obsv).
	// Strictly read-side: exports stay byte-identical with or without it.
	Publisher *obsv.Publisher
}

func (o Options) withDefaults() Options {
	if o.Scale.Div == 0 {
		o.Scale = Repro()
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

// runGrid runs every arm of every row on internal/pool as one flat Map in
// row-major order, so rows share the worker budget, and returns the
// outcomes in the rows' shape, baseline first.
func runGrid(workers int, rows []row) ([][]*Outcome, error) {
	tasks := make([][]pool.Task[*Outcome], len(rows))
	for i, r := range rows {
		for _, a := range r.arms {
			tasks[i] = append(tasks[i], pool.Task[*Outcome]{
				Label: r.spec.Name + "/" + a.name,
				Run:   func() (*Outcome, error) { return Run(r.spec, r.sc, a.plan) },
			})
		}
	}
	return pool.Grid(workers, tasks)
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
// and the render of their outcomes. The readers of RunAll's shared pairs,
// the fleet night and the scaling sweep run by hand instead.
type Experiment struct {
	Name string
	// InAll marks the paper's evaluation, which 'repro -exp all' runs.
	InAll bool
	// Paired experiments read RunAll's baseline/Thermostat pairs.
	Paired bool

	grid func(Options) ([]row, render)
	run  func(Options, map[string]*AppRun) ([]Output, error)
}

// Run runs the experiment; runs holds RunAll's pairs for a Paired one.
func (x Experiment) Run(opt Options, runs map[string]*AppRun) ([]Output, error) {
	opt = opt.withDefaults()
	if x.run != nil {
		return x.run(opt, runs)
	}
	rows, render := x.grid(opt)
	outs, err := runGrid(opt.Workers, rows)
	if err != nil {
		return nil, err
	}
	return render(outs)
}

// Experiments is the repro table, in the order repro runs it whatever order
// -exp names them in.
var Experiments = []Experiment{
	{Name: "fig1", InAll: true, grid: fig1},
	{Name: "naive", InAll: true, grid: naive},
	{Name: "fig2", InAll: true, grid: fig2},
	{Name: "table1", InAll: true, grid: table1},
	{Name: "table2", InAll: true, Paired: true, run: func(opt Options, runs map[string]*AppRun) ([]Output, error) {
		return []Output{{Name: "table2", Table: Table2Table(Table2(runs, opt))}}, nil
	}},
	{Name: "fig3", InAll: true, Paired: true, run: fig3},
	{Name: "colddata", InAll: true, Paired: true, run: coldData},
	{Name: "fig11", InAll: true, grid: fig11},
	{Name: "table3", InAll: true, Paired: true, run: func(opt Options, runs map[string]*AppRun) ([]Output, error) {
		return []Output{{Name: "table3", Table: Table3Table(Table3(runs, opt))}}, nil
	}},
	{Name: "table4", InAll: true, Paired: true, run: func(opt Options, runs map[string]*AppRun) ([]Output, error) {
		rows, err := Table4(runs, opt)
		return []Output{{Name: "table4", Table: Table4Table(rows)}}, err
	}},
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
