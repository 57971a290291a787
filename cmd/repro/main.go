// Command repro regenerates every table and figure from the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	repro -exp all                     # everything, repro scale
//	repro -exp fig1,table1 -scale bench
//	repro -exp colddata -apps cassandra,redis
//	repro -exp fig11 -csv out/         # also dump CSVs
//
// Experiments: fig1, naive, fig2, table1, table2, fig3, colddata (figures
// 5-10), fig11, table3, table4, baselines (policy comparison), ablations
// (design-choice studies), ntier (DRAM/CXL/NVM sweep; not part of 'all'),
// matrix (tracker × policy × workload × topology zoo; not part of 'all'),
// fleet (multi-tenant datacenter-night arbitration scenario; not part of
// 'all' — writes results/fleet_night.{txt,csv}), scale (simulator scaling
// sweep, 1 GB to 1 TB; not part of 'all' — writes
// results/BENCH_scale.{json,txt}).
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

// experiments is the set -exp accepts, including the opt-in extras 'all'
// does not run.
var experiments = []string{
	"all", "fig1", "naive", "fig2", "table1", "table2", "fig3", "colddata",
	"fig11", "table3", "table4", "baselines", "ablations",
	"ntier", "matrix", "fleet", "scale",
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The experiment
// list is repro's own; everything else is daemon.Config.Validate, the one
// copy of the rules shared with cmd/thermostat-sim and thermostatd.
func validate(exps string, cfg daemon.Config) error {
	for _, e := range strings.Split(exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experiments, e) {
			return fmt.Errorf("unknown experiment %q (experiments: %s)",
				e, strings.Join(experiments, ", "))
		}
	}
	return cfg.Validate()
}

func main() {
	// The flags are the CLI spelling of one daemon.Config. Every repro run
	// drives the paper's thermostat arm, so the policy is fixed.
	cfg := daemon.Config{Policy: "thermostat"}
	var (
		expFlag = flag.String("exp", "all", "comma-separated experiments or 'all'")
		csvDir  = flag.String("csv", "", "directory to also write CSV outputs into")
		svgDir  = flag.String("svg", "", "directory to also render SVG figures into")
		outDir  = flag.String("results", "results", "directory the fleet and scale experiments write their committed artifacts into")
	)
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
	logger, _ = obsv.NewLogger(os.Stderr, cfg.LogFormat) // format vetted above

	sc, err := harness.ResolveScale(cfg.Scale, cfg.Seed, cfg.DurationS)
	if err != nil {
		fatal(err)
	}

	opt := harness.Options{Scale: sc, SlowdownPct: cfg.SlowdownPct, Workers: cfg.Workers}
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
		opt.Publisher = pub
	}
	for _, name := range cfg.Apps {
		spec, ok := workload.ByName(strings.TrimSpace(name))
		if !ok {
			fatal(fmt.Errorf("unknown application %q", name))
		}
		opt.Apps = append(opt.Apps, spec)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	emit := func(name string, t *report.Table) {
		fmt.Println(t.String())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, t); err != nil {
				fatal(err)
			}
		}
	}

	// Experiments that share the paired baseline/Thermostat runs.
	needRuns := selected("fig3") || selected("table2") || selected("colddata") ||
		selected("table3") || selected("table4")
	var runs map[string]*harness.AppRun
	if needRuns {
		logger.Info("running baseline + thermostat pairs", "scale", sc.Name)
		runs, err = harness.RunAll(opt)
		if err != nil {
			fatal(err)
		}
	}

	if selected("fig1") {
		logger.Info("running fig1 (Accessed-bit idle fractions)")
		r, err := harness.Fig1(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(r.Bar())
		emit("fig1", r.Table())
		if *svgDir != "" {
			apps := opt.Apps
			if len(apps) == 0 {
				apps = workload.All()
			}
			var labels []string
			var vals []float64
			for _, spec := range apps {
				labels = append(labels, spec.Name)
				vals = append(vals, r.IdleFrac[spec.Name]*100)
			}
			writeSVG(*svgDir, "fig1", &report.BarPlot{
				Title: "Figure 1: 2MB pages idle for 10s", YLabel: "idle fraction (%)",
				Labels: labels, Groups: [][]float64{vals},
			})
		}
	}
	if selected("naive") {
		logger.Info("running naive idle-bit placement on redis")
		n, err := harness.NaivePlacement(workload.Redis(), opt)
		if err != nil {
			fatal(err)
		}
		t := report.NewTable("Naive Accessed-bit placement (Figure 1 caption check)",
			"application", "slowdown_pct", "cold_fraction_pct", "demotions", "promotions")
		t.AddF(n.App, n.Slowdown*100, n.ColdFraction*100, n.Demotions, n.Promotions)
		emit("naive", t)
	}
	if selected("fig2") {
		logger.Info("running fig2 (Accessed-bit correlation scatter)")
		r, err := harness.Fig2(opt)
		if err != nil {
			fatal(err)
		}
		emit("fig2", r.Table())
		if *svgDir != "" {
			var xs, ys []float64
			for _, pt := range r.Points {
				xs = append(xs, float64(pt.HotRegions))
				ys = append(ys, pt.RatePerSec)
			}
			writeSVG(*svgDir, "fig2", &report.ScatterPlot{
				Title:  fmt.Sprintf("Figure 2: Redis (Pearson r = %.2f)", r.Pearson),
				XLabel: "hot 4KB regions per 2MB page", YLabel: "true accesses/sec",
				X: xs, Y: ys,
			})
		}
	}
	if selected("table1") {
		logger.Info("running table1 (huge page gains)")
		rows, err := harness.Table1(opt)
		if err != nil {
			fatal(err)
		}
		emit("table1", harness.Table1Table(rows))
	}
	if selected("table2") {
		emit("table2", harness.Table2Table(harness.Table2(runs, opt)))
	}
	if selected("fig3") {
		series := harness.Fig3(runs, opt)
		emit("fig3", harness.Fig3Table(series))
		if *svgDir != "" {
			var ss []*stats.Series
			for _, s := range series {
				ss = append(ss, s.Rate)
			}
			target := 0.0
			if len(series) > 0 {
				target = series[0].TargetRate
			}
			writeSVG(*svgDir, "fig3", &report.LinePlot{
				Title:  "Figure 3: slow memory access rate over time",
				XLabel: "time (s)", YLabel: "accesses/sec (paper units)",
				Series: ss, HLine: target,
			})
		}
	}
	if selected("colddata") {
		for _, f := range harness.ColdData(runs, opt) {
			emit("colddata-"+f.App, f.Table())
			if *svgDir != "" {
				writeSVG(*svgDir, "colddata-"+f.App, &report.LinePlot{
					Title: fmt.Sprintf("Cold data over time: %s (slowdown %.1f%%)",
						f.App, f.Slowdown*100),
					XLabel: "time (s)", YLabel: "memory footprint (GB)",
					Series:  []*stats.Series{f.Cold2M, f.Cold4K, f.Hot2M, f.Hot4K},
					Stacked: true,
				})
			}
		}
	}
	if selected("fig11") {
		logger.Info("running fig11 (slowdown sweep)")
		rows, err := harness.Fig11(opt)
		if err != nil {
			fatal(err)
		}
		emit("fig11", harness.Fig11Table(rows))
		if *svgDir != "" {
			byTarget := map[float64][]float64{}
			var labels []string
			seen := map[string]bool{}
			for _, r := range rows {
				if !seen[r.App] {
					seen[r.App] = true
					labels = append(labels, r.App)
				}
				byTarget[r.SlowdownPct] = append(byTarget[r.SlowdownPct], r.ColdFraction*100)
			}
			writeSVG(*svgDir, "fig11", &report.BarPlot{
				Title:  "Figure 11: cold fraction vs tolerable slowdown",
				YLabel: "cold fraction (%)", Labels: labels,
				Groups:     [][]float64{byTarget[3], byTarget[6], byTarget[10]},
				GroupNames: []string{"3%", "6%", "10%"},
			})
		}
	}
	if selected("table3") {
		emit("table3", harness.Table3Table(harness.Table3(runs, opt)))
	}
	if selected("table4") {
		rows, err := harness.Table4(runs, opt)
		if err != nil {
			fatal(err)
		}
		emit("table4", harness.Table4Table(rows))
	}
	if selected("baselines") {
		logger.Info("running baseline policy comparison")
		apps := opt.Apps
		if len(apps) == 0 {
			apps = []workload.Spec{workload.Cassandra(workload.WriteHeavy), workload.Redis()}
		}
		for _, spec := range apps {
			_, t, err := harness.CompareBaselines(spec, opt)
			if err != nil {
				fatal(err)
			}
			emit("baselines-"+spec.Name, t)
		}
	}
	if selected("ablations") {
		runAblations(opt, emit)
	}
	// The policy matrix is opt-in like ntier: it compares this repo's
	// tracker × policy zoo head-to-head, which the paper never did.
	if want["matrix"] {
		logger.Info("running policy matrix (tracker × policy × workload × topology)")
		mopt := harness.MatrixOptions{
			Scale: opt.Scale, Apps: opt.Apps,
			SlowdownPct: opt.SlowdownPct, Workers: opt.Workers,
		}
		rep, err := harness.PolicyMatrix(mopt)
		if err != nil {
			fatal(err)
		}
		emit("policy_matrix", rep.Table())
	}
	// The fleet scenario is opt-in like ntier: multi-tenant arbitration is
	// this repo's extension, not part of the paper's evaluation. It renders
	// the seeded "datacenter night" report and writes the committed artifact
	// pair results/fleet_night.{txt,csv}.
	if want["fleet"] {
		logger.Info("running fleet (datacenter night: one hierarchy, four tenants, churn)")
		res, err := harness.FleetNight(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.Text)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, "fleet_night", res.Table); err != nil {
				fatal(err)
			}
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		txt := filepath.Join(*outDir, "fleet_night.txt")
		if err := os.WriteFile(txt, []byte(res.Text), 0o644); err != nil {
			fatal(err)
		}
		csv, err := res.TenantCSV()
		if err != nil {
			fatal(err)
		}
		csvPath := filepath.Join(*outDir, "fleet_night.csv")
		if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
			fatal(err)
		}
		logger.Info("wrote fleet night artifacts", "txt", txt, "csv", csvPath)
	}
	// The scaling sweep is opt-in: it benchmarks the simulator itself
	// (1 GB -> 1 TB) rather than the paper's evaluation, and writes the
	// committed artifact pair results/BENCH_scale.{json,txt}.
	if want["scale"] {
		runScale(cfg.Seed, *outDir, emit)
	}
	// The N-tier sweep is opt-in: it is not part of the paper's evaluation,
	// so 'all' (the paper regeneration) does not include it.
	if want["ntier"] {
		logger.Info("running ntier (DRAM/CXL/NVM sweep)")
		reps, err := harness.NTierSweep(opt, harness.DefaultThreeTier(0))
		if err != nil {
			fatal(err)
		}
		for _, rep := range reps {
			emit("ntier-traffic-"+rep.App, rep.TrafficTable())
			emit("ntier-cost-"+rep.App, rep.CostTable())
		}
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
func runScale(seed uint64, outDir string, emit func(string, *report.Table)) {
	logger.Info("running scale (simulator scaling sweep, 1 GB -> 1 TB)")
	sc := harness.ScaleBenchProfile()
	sc.Seed = seed
	points, err := harness.ScaleSweep(sc, harness.ScaleFootprints())
	if err != nil {
		fatal(err)
	}
	tbl := harness.ScaleTable(points)
	emit("scale", tbl)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	js, err := json.MarshalIndent(scaleArtifact{Workload: "scale-synth", Seed: seed, Points: points}, "", "  ")
	if err != nil {
		fatal(err)
	}
	jsonPath := filepath.Join(outDir, "BENCH_scale.json")
	if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
		fatal(err)
	}
	txtPath := filepath.Join(outDir, "BENCH_scale.txt")
	if err := os.WriteFile(txtPath, []byte(tbl.String()+"\n"), 0o644); err != nil {
		fatal(err)
	}
	logger.Info("wrote scaling artifacts", "json", jsonPath, "txt", txtPath)
}

// runAblations regenerates the design-choice studies DESIGN.md indexes.
func runAblations(opt harness.Options, emit func(string, *report.Table)) {
	cassandra := workload.Cassandra(workload.WriteHeavy)
	aerospike := workload.Aerospike(workload.ReadHeavy)

	logger.Info("ablation: poison budget K")
	if _, t, err := harness.AblationPoisonBudget(cassandra, opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-k", t)
	}
	logger.Info("ablation: sample fraction")
	if _, t, err := harness.AblationSampleFraction(cassandra, opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-fraction", t)
	}
	logger.Info("ablation: accessed-bit prefilter")
	if _, t, err := harness.AblationPrefilter(aerospike, opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-prefilter", t)
	}
	logger.Info("ablation: correction under rotation")
	if _, t, err := harness.AblationCorrection(opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-correction", t)
	}
	logger.Info("ablation: trap placement")
	if _, t, err := harness.AblationTrapPlacement(cassandra, opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-trap", t)
	}
	logger.Info("ablation: slow-memory model")
	if _, t, err := harness.AblationSlowMemMode(cassandra, opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-slowmode", t)
	}
	logger.Info("ablation: §6.1 counters")
	if _, t, err := harness.AblationCounters(opt); err != nil {
		fatal(err)
	} else {
		emit("ablation-counters", t)
	}
}

func writeSVG(dir, name string, plot interface{ WriteSVG(io.Writer) error }) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name+".svg"))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := plot.WriteSVG(f); err != nil {
		fatal(err)
	}
}

func writeCSV(dir, name string, t *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

func fatal(err error) {
	logger.Error("repro failed", "err", err)
	os.Exit(1)
}
