// Command repro regenerates every table and figure from the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	repro -exp all                     # everything, repro scale
//	repro -exp fig1,table1 -scale bench
//	repro -exp colddata -apps cassandra,redis
//	repro -exp fig11 -csv out/         # also dump CSVs
//
// The experiments table below is the set -exp accepts; 'all' is the paper
// regeneration and leaves out the rows marked opt-in.
//
// Independent runs fan out across -workers goroutines (default: all cores).
// Results are bit-for-bit identical at any worker count; -workers 1 is the
// exact old serial path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"thermostat/internal/daemon"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
	"thermostat/internal/report"
	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

// logger is the process-wide structured logger, configured by -log-format
// in main before any run starts.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// experiment is one name -exp accepts: whether 'all' includes it, whether it
// reads the shared baseline/Thermostat pairs (run once, before the first
// experiment), and what it runs.
type experiment struct {
	name      string
	inAll     bool
	needsRuns bool
	run       func(*env)
}

// experiments drives validation, the shared runs and dispatch, which is in
// this order whatever order -exp names them in. The last four are opt-in:
// they are this repo's extensions, not part of the paper's evaluation.
var experiments = []experiment{
	{"fig1", true, false, runFig1},
	{"naive", true, false, runNaive},
	{"fig2", true, false, runFig2},
	{"table1", true, false, runTable1},
	{"table2", true, true, func(e *env) { e.emit("table2", harness.Table2Table(harness.Table2(e.runs, e.opt))) }},
	{"fig3", true, true, runFig3},
	{"colddata", true, true, runColdData},
	{"fig11", true, false, runFig11},
	{"table3", true, true, func(e *env) { e.emit("table3", harness.Table3Table(harness.Table3(e.runs, e.opt))) }},
	{"table4", true, true, runTable4},
	{"baselines", true, false, runBaselines},
	{"ablations", true, false, runAblations},
	// The tracker × policy zoo head-to-head, which the paper never did.
	{"matrix", false, false, runMatrix},
	// The seeded "datacenter night"; writes results/fleet_night.{txt,csv}.
	{"fleet", false, false, runFleet},
	// Benchmarks the simulator itself; writes results/BENCH_scale.{json,txt}.
	{"scale", false, false, runScale},
	{"ntier", false, false, runNTier},
}

// pick resolves an -exp value to the experiments it names, in table order.
func pick(exps string) ([]experiment, error) {
	want := map[string]bool{}
	names := []string{"all"}
	for _, x := range experiments {
		names = append(names, x.name)
	}
	for _, e := range strings.Split(exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(names, e) {
			return nil, fmt.Errorf("unknown experiment %q (experiments: %s)", e, strings.Join(names, ", "))
		}
		want[e] = true
	}
	var picked []experiment
	for _, x := range experiments {
		if want[x.name] || x.inAll && want["all"] {
			picked = append(picked, x)
		}
	}
	return picked, nil
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The experiment
// list is repro's own; everything else is daemon.Config.Validate, the one
// copy of the rules shared with cmd/thermostat-sim and thermostatd.
func validate(exps string, cfg daemon.Config) error {
	if _, err := pick(exps); err != nil {
		return err
	}
	return cfg.Validate()
}

// env is what an experiment runs with: the harness options, the shared
// paired runs (nil unless a picked experiment needs them), the seed, and
// where the optional CSV/SVG copies and the committed artifacts go.
type env struct {
	opt                    harness.Options
	runs                   map[string]*harness.AppRun
	seed                   uint64
	csvDir, svgDir, outDir string
}

// emit prints a table and, under -csv, also writes it out.
func (e *env) emit(name string, t *report.Table) {
	fmt.Println(t.String())
	write(e.csvDir, name+".csv", t.WriteCSV)
}

// write creates dir/name and fills it; an empty dir is an output nobody
// asked for.
func write(dir, name string, fill func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fill(f); err != nil {
		fatal(err)
	}
}

// apps is the -apps selection, or def when there is none.
func (e *env) apps(def []workload.Spec) []workload.Spec {
	if len(e.opt.Apps) > 0 {
		return e.opt.Apps
	}
	return def
}

func main() {
	// The flags are the CLI spelling of one daemon.Config. Every repro run
	// drives the paper's thermostat arm, so the policy is fixed.
	cfg := daemon.Config{Policy: "thermostat"}
	e := &env{}
	expFlag := flag.String("exp", "all", "comma-separated experiments or 'all'")
	flag.StringVar(&e.csvDir, "csv", "", "directory to also write CSV outputs into")
	flag.StringVar(&e.svgDir, "svg", "", "directory to also render SVG figures into")
	flag.StringVar(&e.outDir, "results", "results", "directory the fleet and scale experiments write their committed artifacts into")
	flag.StringVar(&cfg.Scale, "scale", "repro", "scale profile: tiny, bench, repro")
	flag.Func("apps", "comma-separated `apps` to run instead of all six", func(s string) error {
		cfg.Apps = nil
		if s != "" {
			cfg.Apps = strings.Split(s, ",")
		}
		return nil
	})
	flag.Float64Var(&cfg.SlowdownPct, "slowdown", 3, "tolerable slowdown percent for Thermostat runs")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.DurationS, "duration", 0, "override run length in simulated seconds")
	flag.IntVar(&cfg.Workers, "workers", 0, "goroutines fanning independent runs out (0 = all cores, 1 = serial; results are identical at any setting)")
	flag.StringVar(&cfg.Serve, "serve", "", "serve the live observability plane (/metrics, /status, /tenants, /dump, pprof) on this address (e.g. localhost:9090) for the duration of the run")
	flag.StringVar(&cfg.LogFormat, "log-format", "text", "progress log format: text or json")
	flag.Parse()

	if err := validate(*expFlag, cfg); err != nil {
		fatal(err)
	}
	picked, _ := pick(*expFlag)                          // names vetted above
	logger, _ = obsv.NewLogger(os.Stderr, cfg.LogFormat) // format vetted above

	sc, err := harness.ResolveScale(cfg.Scale, cfg.Seed, cfg.DurationS)
	if err != nil {
		fatal(err)
	}

	e.seed = cfg.Seed
	e.opt = harness.Options{Scale: sc, SlowdownPct: cfg.SlowdownPct, Workers: cfg.Workers}
	if cfg.Serve != "" {
		pub := obsv.NewPublisher()
		pub.SetInfo(obsv.Info{
			Binary: "repro", App: strings.Join(cfg.Apps, ","), Policy: cfg.Policy,
			Scale: cfg.Scale, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		servers, err := obsv.ServeAll(pub, logger, cfg.Serve)
		if err != nil {
			fatal(err)
		}
		// ^C or SIGTERM drains in-flight scrapes before exiting instead of
		// cutting connections mid-response.
		stop := obsv.ShutdownOnSignal(5*time.Second, logger, servers...)
		defer stop()
		pub.SetPhase(obsv.PhaseRunning)
		defer pub.SetPhase(obsv.PhaseDone)
		e.opt.Publisher = pub
	}
	for _, name := range cfg.Apps {
		spec, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			fatal(fmt.Errorf("unknown application %q", name))
		}
		e.opt.Apps = append(e.opt.Apps, spec)
	}

	if slices.ContainsFunc(picked, func(x experiment) bool { return x.needsRuns }) {
		logger.Info("running baseline + thermostat pairs", "scale", sc.Name)
		if e.runs, err = harness.RunAll(e.opt); err != nil {
			fatal(err)
		}
	}
	for _, x := range picked {
		x.run(e)
	}
}

func runFig1(e *env) {
	logger.Info("running fig1 (Accessed-bit idle fractions)")
	r, err := harness.Fig1(e.opt)
	if err != nil {
		fatal(err)
	}
	fmt.Println(r.Bar())
	e.emit("fig1", r.Table())
	var labels []string
	var vals []float64
	for _, spec := range e.apps(workload.All()) {
		labels = append(labels, spec.Name)
		vals = append(vals, r.IdleFrac[spec.Name]*100)
	}
	write(e.svgDir, "fig1.svg", (&report.BarPlot{
		Title: "Figure 1: 2MB pages idle for 10s", YLabel: "idle fraction (%)",
		Labels: labels, Groups: [][]float64{vals},
	}).WriteSVG)
}

func runNaive(e *env) {
	logger.Info("running naive idle-bit placement on redis")
	n, err := harness.NaivePlacement(workload.Redis(), e.opt)
	if err != nil {
		fatal(err)
	}
	t := report.NewTable("Naive Accessed-bit placement (Figure 1 caption check)",
		"application", "slowdown_pct", "cold_fraction_pct", "demotions", "promotions")
	t.AddF(n.App, n.Slowdown*100, n.ColdFraction*100, n.Demotions, n.Promotions)
	e.emit("naive", t)
}

func runFig2(e *env) {
	logger.Info("running fig2 (Accessed-bit correlation scatter)")
	r, err := harness.Fig2(e.opt)
	if err != nil {
		fatal(err)
	}
	e.emit("fig2", r.Table())
	var xs, ys []float64
	for _, pt := range r.Points {
		xs = append(xs, float64(pt.HotRegions))
		ys = append(ys, pt.RatePerSec)
	}
	write(e.svgDir, "fig2.svg", (&report.ScatterPlot{
		Title:  fmt.Sprintf("Figure 2: Redis (Pearson r = %.2f)", r.Pearson),
		XLabel: "hot 4KB regions per 2MB page", YLabel: "true accesses/sec",
		X: xs, Y: ys,
	}).WriteSVG)
}

func runTable1(e *env) {
	logger.Info("running table1 (huge page gains)")
	rows, err := harness.Table1(e.opt)
	if err != nil {
		fatal(err)
	}
	e.emit("table1", harness.Table1Table(rows))
}

func runFig3(e *env) {
	series := harness.Fig3(e.runs, e.opt)
	e.emit("fig3", harness.Fig3Table(series))
	var ss []*stats.Series
	for _, s := range series {
		ss = append(ss, s.Rate)
	}
	target := 0.0
	if len(series) > 0 {
		target = series[0].TargetRate
	}
	write(e.svgDir, "fig3.svg", (&report.LinePlot{
		Title:  "Figure 3: slow memory access rate over time",
		XLabel: "time (s)", YLabel: "accesses/sec (paper units)",
		Series: ss, HLine: target,
	}).WriteSVG)
}

func runColdData(e *env) {
	for _, f := range harness.ColdData(e.runs, e.opt) {
		e.emit("colddata-"+f.App, f.Table())
		write(e.svgDir, "colddata-"+f.App+".svg", (&report.LinePlot{
			Title: fmt.Sprintf("Cold data over time: %s (slowdown %.1f%%)",
				f.App, f.Slowdown*100),
			XLabel: "time (s)", YLabel: "memory footprint (GB)",
			Series:  []*stats.Series{f.Cold2M, f.Cold4K, f.Hot2M, f.Hot4K},
			Stacked: true,
		}).WriteSVG)
	}
}

func runFig11(e *env) {
	logger.Info("running fig11 (slowdown sweep)")
	rows, err := harness.Fig11(e.opt)
	if err != nil {
		fatal(err)
	}
	e.emit("fig11", harness.Fig11Table(rows))
	byTarget := map[float64][]float64{}
	var labels []string
	for _, r := range rows {
		if !slices.Contains(labels, r.App) {
			labels = append(labels, r.App)
		}
		byTarget[r.SlowdownPct] = append(byTarget[r.SlowdownPct], r.ColdFraction*100)
	}
	write(e.svgDir, "fig11.svg", (&report.BarPlot{
		Title:  "Figure 11: cold fraction vs tolerable slowdown",
		YLabel: "cold fraction (%)", Labels: labels,
		Groups:     [][]float64{byTarget[3], byTarget[6], byTarget[10]},
		GroupNames: []string{"3%", "6%", "10%"},
	}).WriteSVG)
}

func runTable4(e *env) {
	rows, err := harness.Table4(e.runs, e.opt)
	if err != nil {
		fatal(err)
	}
	e.emit("table4", harness.Table4Table(rows))
}

func runBaselines(e *env) {
	logger.Info("running baseline policy comparison")
	for _, spec := range e.apps([]workload.Spec{workload.Cassandra(workload.WriteHeavy), workload.Redis()}) {
		_, t, err := harness.CompareBaselines(spec, e.opt)
		if err != nil {
			fatal(err)
		}
		e.emit("baselines-"+spec.Name, t)
	}
}

func runMatrix(e *env) {
	logger.Info("running policy matrix (tracker × policy × workload × topology)")
	rep, err := harness.PolicyMatrix(harness.MatrixOptions{
		Scale: e.opt.Scale, Apps: e.opt.Apps,
		SlowdownPct: e.opt.SlowdownPct, Workers: e.opt.Workers,
	})
	if err != nil {
		fatal(err)
	}
	e.emit("policy_matrix", rep.Table())
}

func runFleet(e *env) {
	logger.Info("running fleet (datacenter night: one hierarchy, four tenants, churn)")
	res, err := harness.FleetNight(e.opt)
	if err != nil {
		fatal(err)
	}
	fmt.Println(res.Text)
	write(e.csvDir, "fleet_night.csv", res.Table.WriteCSV)
	csv, err := res.TenantCSV()
	if err != nil {
		fatal(err)
	}
	txt := e.artifact("fleet_night.txt", []byte(res.Text))
	csvPath := e.artifact("fleet_night.csv", csv)
	logger.Info("wrote fleet night artifacts", "txt", txt, "csv", csvPath)
}

func runNTier(e *env) {
	logger.Info("running ntier (DRAM/CXL/NVM sweep)")
	reps, err := harness.NTierSweep(e.opt, harness.DefaultThreeTier(0))
	if err != nil {
		fatal(err)
	}
	for _, rep := range reps {
		e.emit("ntier-traffic-"+rep.App, rep.TrafficTable())
		e.emit("ntier-cost-"+rep.App, rep.CostTable())
	}
}

// scaleArtifact is the machine-readable shape results/BENCH_scale.json pins.
type scaleArtifact struct {
	Workload string                `json:"workload"`
	Seed     uint64                `json:"seed"`
	Points   []*harness.ScalePoint `json:"points"`
}

// runScale runs the 1 GB -> 1 TB scaling sweep, prints the table, and pins
// results/BENCH_scale.{json,txt}.
func runScale(e *env) {
	logger.Info("running scale (simulator scaling sweep, 1 GB -> 1 TB)")
	sc := harness.ScaleBenchProfile()
	sc.Seed = e.seed
	points, err := harness.ScaleSweep(sc, harness.ScaleFootprints())
	if err != nil {
		fatal(err)
	}
	tbl := harness.ScaleTable(points)
	e.emit("scale", tbl)

	js, err := json.MarshalIndent(scaleArtifact{Workload: "scale-synth", Seed: e.seed, Points: points}, "", "  ")
	if err != nil {
		fatal(err)
	}
	jsonPath := e.artifact("BENCH_scale.json", append(js, '\n'))
	txtPath := e.artifact("BENCH_scale.txt", []byte(tbl.String()+"\n"))
	logger.Info("wrote scaling artifacts", "json", jsonPath, "txt", txtPath)
}

// runAblations regenerates the design-choice studies DESIGN.md indexes. Each
// study also returns its rows; only the table is printed.
func runAblations(e *env) {
	cassandra := workload.Cassandra(workload.WriteHeavy)
	aerospike := workload.Aerospike(workload.ReadHeavy)
	emit := func(name string, t *report.Table, err error) {
		if err != nil {
			fatal(err)
		}
		e.emit(name, t)
	}
	logger.Info("ablation: poison budget K")
	_, t, err := harness.AblationPoisonBudget(cassandra, e.opt)
	emit("ablation-k", t, err)
	logger.Info("ablation: sample fraction")
	_, t, err = harness.AblationSampleFraction(cassandra, e.opt)
	emit("ablation-fraction", t, err)
	logger.Info("ablation: accessed-bit prefilter")
	_, t, err = harness.AblationPrefilter(aerospike, e.opt)
	emit("ablation-prefilter", t, err)
	logger.Info("ablation: correction under rotation")
	_, t, err = harness.AblationCorrection(e.opt)
	emit("ablation-correction", t, err)
	logger.Info("ablation: trap placement")
	_, t, err = harness.AblationTrapPlacement(cassandra, e.opt)
	emit("ablation-trap", t, err)
	logger.Info("ablation: slow-memory model")
	_, t, err = harness.AblationSlowMemMode(cassandra, e.opt)
	emit("ablation-slowmode", t, err)
	logger.Info("ablation: §6.1 counters")
	_, t, err = harness.AblationCounters(e.opt)
	emit("ablation-counters", t, err)
}

// artifact writes one committed result file under -results and returns its
// path.
func (e *env) artifact(name string, data []byte) string {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fatal(err)
	}
	path := filepath.Join(e.outDir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	return path
}

func fatal(err error) {
	logger.Error("repro failed", "err", err)
	os.Exit(1)
}
