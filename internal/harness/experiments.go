package harness

import (
	"fmt"
	"sort"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/pricing"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// AppRun pairs a Thermostat run with its all-DRAM baseline.
type AppRun struct {
	Base   *Outcome
	Thermo *Outcome
	// Slowdown is the measured throughput degradation (0.03 = 3%).
	Slowdown float64
	// ColdFraction is the mean post-warmup cold share of the footprint.
	ColdFraction float64
}

// RunAll executes the paired baseline/Thermostat runs for every app — the
// shared input of Figures 3 and 5-10 and Tables 2-4 — as one row per app.
// Each run gets its own collector when telemetry is on, exported under the
// run's label, and its tee into the live plane when a publisher is attached.
func RunAll(opt Options) (map[string]*AppRun, error) {
	opt = opt.withDefaults()
	var rows []row
	for _, spec := range opt.apps() {
		r := row{spec: spec, sc: opt.Scale}
		for _, a := range []arm{baseline, {name: "thermostat", plan: Plan{SlowdownPct: opt.SlowdownPct}}} {
			r.arms = append(r.arms, arm{name: a.name, run: func(spec workload.Spec, sc Scale) (*Outcome, error) {
				label := spec.Name + "/" + a.name
				var col *telemetry.Collector
				if opt.Telemetry != nil {
					col = opt.Telemetry.NewCollector()
				}
				rec, census := Observe(opt.Publisher, label, col)
				plan := a.plan
				plan.Config = func(cfg *sim.Config) { cfg.Recorder = rec }
				plan.Engine = func(_ *cgroup.Group, eng *core.Engine) { census(label, eng) }
				out, err := Run(spec, sc, plan)
				if err != nil || col == nil {
					return out, err
				}
				out.Telemetry = col
				_, _, err = opt.Telemetry.Export("runall-"+spec.Name+"-"+a.name, col)
				return out, err
			}})
		}
		rows = append(rows, r)
	}
	outs, err := runGrid(opt.Workers, rows)
	if err != nil {
		return nil, err
	}
	runs := make(map[string]*AppRun, len(rows))
	for i, r := range rows {
		base, th := outs[i][0], outs[i][1]
		runs[r.spec.Name] = &AppRun{Base: base, Thermo: th, Slowdown: sim.Slowdown(base.Result, th.Result),
			ColdFraction: th.Result.MeanColdFraction(opt.Scale.WarmupNs)}
	}
	return runs, nil
}

// idleScans is how many consecutive idle Accessed-bit scans, a quarter of
// the 10 s window each, make a page idle in Figure 1 and its naive check.
const idleScans = 4

// idleWindow returns sc rescheduled for idle detection: 10 s of paper time
// is 10 s·F of simulated time, scanned idleScans times per window.
func idleWindow(sc Scale) (Scale, int64) {
	window := 10e9 * sc.TimeDilate
	sc.PeriodNs = window / idleScans
	return sc, window
}

// fig1 is Figure 1: per app, a kstaled scan that never moves a page, run
// across several idle windows whatever the profile; the idle fraction is
// the share of 2MB pages idle for the whole window.
func fig1(opt Options) ([]row, render) {
	sc, window := idleWindow(opt.Scale)
	sc = sc.WithDuration(max(sc.DurationNs, 3*window))
	var rows []row
	var scans []*scanOnly
	for _, spec := range opt.apps() {
		pol := &scanOnly{interval: sc.PeriodNs}
		rows = append(rows, row{spec: spec, sc: sc, arms: []arm{{name: "kstaled", plan: Plan{Policy: pol}}}})
		scans = append(scans, pol)
	}
	return rows, func([][]*Outcome) ([]Output, error) {
		t := report.NewTable(
			"Figure 1: fraction of 2MB pages idle for 10s (Accessed-bit detection)",
			"application", "idle_fraction_pct")
		var labels []string
		var fracs, pcts []float64
		for i, r := range rows {
			f := scans[i].scanner.IdleFraction(idleScans)
			t.AddF(r.spec.Name, f*100)
			labels = append(labels, r.spec.Name)
			fracs = append(fracs, f)
			pcts = append(pcts, f*100)
		}
		const title = "Figure 1: 2MB pages idle for 10s"
		return []Output{
			{Text: report.Bar(title, labels, fracs, 50)},
			{Name: "fig1", Table: t, SVG: (&report.BarPlot{
				Title: title, YLabel: "idle fraction (%)", Labels: labels, Groups: [][]float64{pcts},
			}).WriteSVG},
		}, nil
	}
}

// naive is the Figure 1 caption check: what happens when the idle pages are
// actually placed in slow memory by an Accessed-bit-only policy with no
// correction (for Redis the paper sees more than 10%). The run spans several
// hot-set rotations, and any rotating picker is accelerated to twice the
// idle window (ratios between window, rotation and run length mirror the
// paper's 10s window against minutes of drift): the idle set looks safe when
// placed and becomes hot afterwards.
func naive(opt Options) ([]row, render) {
	spec := workload.Redis()
	sc, window := idleWindow(opt.Scale)
	if sc.DurationNs < 8*window {
		sc.DurationNs = 8 * window
	}
	sc.WarmupNs = 2 * window
	for i := range spec.Segments {
		if p, ok := spec.Segments[i].Picker.(*workload.HotspotSweep); ok && p.RotatePeriodNs > 0 {
			p.RotatePeriodNs = 20e9
		}
	}
	pol := &core.IdleDemote{Interval: sc.PeriodNs, IdleScans: idleScans, NoPromote: true}
	rows := []row{{spec: spec, sc: sc, arms: []arm{baseline, {name: "idle-demote", plan: Plan{Policy: pol}}}}}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		base, idle := outs[0][0].Result, outs[0][1].Result
		t := report.NewTable("Naive Accessed-bit placement (Figure 1 caption check)",
			"application", "slowdown_pct", "cold_fraction_pct", "demotions", "promotions")
		t.AddF(spec.Name, sim.Slowdown(base, idle)*100, idle.MeanColdFraction(sc.WarmupNs)*100,
			pol.Demotions(), pol.Promotions())
		return []Output{{Name: "naive", Table: t}}, nil
	}
}

// fig2Point is one 2MB page in the Figure 2 scatter: its 4KB children
// accessed in three consecutive scan intervals, and its ground-truth access
// rate in paper units.
type fig2Point struct {
	hot  int
	rate float64
}

// fig2Points reads the scatter off a split-scan outcome, in scan order.
func fig2Points(pol *splitScan, out *Outcome) []fig2Point {
	counts := out.Machine.PageCounts()
	durSec := float64(out.Result.DurationNs) / 1e9
	var pts []fig2Point
	for _, base := range pol.bases {
		pts = append(pts, fig2Point{pol.scanner.HotSubpages(base, 3), out.Scale.PaperRate(float64(counts[base]) / durSec)})
	}
	return pts
}

// fig2 is Figure 2: split every huge page of Redis, scan Accessed bits at
// the maximum frequency compatible with the slowdown budget, and compare
// hot-region counts against the simulator's ground-truth access rates. The
// paper's claim is that the correlation is weak.
func fig2(opt Options) ([]row, render) {
	pol := &splitScan{scanOnly: scanOnly{interval: opt.Scale.PeriodNs}}
	rows := []row{{spec: workload.Redis(), sc: opt.Scale, arms: []arm{{name: "split-scan",
		plan: Plan{Policy: pol, Machine: (*sim.Machine).EnablePageCounts}}}}}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		pts := fig2Points(pol, outs[0][0])
		var xs, ys []float64
		for _, p := range pts {
			xs = append(xs, float64(p.hot))
			ys = append(ys, p.rate)
		}
		r := stats.Pearson(xs, ys)
		t := report.NewTable(
			fmt.Sprintf("Figure 2: Redis access rate vs Accessed-bit hot 4KB regions (Pearson r = %.3f)", r),
			"hot_4k_regions", "true_accesses_per_sec")
		sorted := append([]fig2Point(nil), pts...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].hot < sorted[j].hot })
		for _, p := range sorted {
			t.AddF(p.hot, p.rate)
		}
		return []Output{{Name: "fig2", Table: t, SVG: (&report.ScatterPlot{
			Title:  fmt.Sprintf("Figure 2: Redis (Pearson r = %.2f)", r),
			XLabel: "hot 4KB regions per 2MB page", YLabel: "true accesses/sec",
			X: xs, Y: ys,
		}).WriteSVG}}, nil
	}
}

// table1 is Table 1: throughput gain from 2MB pages at both guest and host
// (the all-DRAM baseline) versus 4KB at both, under nested paging.
// Placement plays no role here, so the schedule is a third as long.
func table1(opt Options) ([]row, render) {
	sc := opt.Scale.WithDuration(opt.Scale.DurationNs / 3)
	var rows []row
	for _, spec := range opt.apps() {
		rows = append(rows, row{spec: spec, sc: sc, arms: []arm{baseline, {name: "4K", plan: Plan{SmallPages: true}}}})
	}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable(
			"Table 1: throughput gain from 2MB huge pages under virtualization",
			"application", "gain_pct")
		for i, r := range rows {
			gain := outs[i][0].Result.Throughput/outs[i][1].Result.Throughput - 1
			t.AddF(r.spec.Name, gain*100)
		}
		return []Output{{Name: "table1", Table: t}}, nil
	}
}

// fig11Targets are the tolerable-slowdown points Figure 11 visits.
var fig11Targets = []float64{3, 6, 10}

// fig11 is Figure 11: per app, the all-DRAM baseline and Thermostat at each
// tolerable-slowdown target.
func fig11(opt Options) ([]row, render) {
	var rows []row
	for _, spec := range opt.apps() {
		r := row{spec: spec, sc: opt.Scale, arms: []arm{baseline}}
		for _, pct := range fig11Targets {
			r.arms = append(r.arms, arm{name: fmt.Sprintf("%g%%", pct), plan: Plan{SlowdownPct: pct}})
		}
		rows = append(rows, r)
	}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable(
			"Figure 11: cold data fraction vs specified tolerable slowdown",
			"application", "target_slowdown_pct", "cold_fraction_pct", "measured_slowdown_pct")
		var labels []string
		groups := make([][]float64, len(fig11Targets))
		for i, r := range rows {
			labels = append(labels, r.spec.Name)
			for j, pct := range fig11Targets {
				th := outs[i][j+1].Result
				cold := th.MeanColdFraction(r.sc.WarmupNs)
				t.AddF(r.spec.Name, pct, cold*100, sim.Slowdown(outs[i][0].Result, th)*100)
				groups[j] = append(groups[j], cold*100)
			}
		}
		return []Output{{Name: "fig11", Table: t, SVG: (&report.BarPlot{
			Title:  "Figure 11: cold fraction vs tolerable slowdown",
			YLabel: "cold fraction (%)", Labels: labels,
			Groups: groups, GroupNames: []string{"3%", "6%", "10%"},
		}).WriteSVG}}, nil
	}
}

// fig3 renders Figure 3 from RunAll's pairs, with the target line.
func fig3(opt Options, runs map[string]*AppRun) ([]Output, error) {
	series := Fig3(runs, opt)
	plot := &report.LinePlot{
		Title:  "Figure 3: slow memory access rate over time",
		XLabel: "time (s)", YLabel: "accesses/sec (paper units)",
		HLine: opt.SlowdownPct / 100 / 1e-6,
	}
	for _, s := range series {
		plot.Series = append(plot.Series, s.Rate)
	}
	return []Output{{Name: "fig3", Table: Fig3Table(series), SVG: plot.WriteSVG}}, nil
}

// coldData renders Figures 5-10 from RunAll's pairs, one per app.
func coldData(opt Options, runs map[string]*AppRun) ([]Output, error) {
	var out []Output
	for _, f := range ColdData(runs, opt) {
		out = append(out, Output{Name: "colddata-" + f.App, Table: f.Table(), SVG: (&report.LinePlot{
			Title:  fmt.Sprintf("Cold data over time: %s (slowdown %.1f%%)", f.App, f.Slowdown*100),
			XLabel: "time (s)", YLabel: "memory footprint (GB)",
			Series:  []*stats.Series{f.Cold2M, f.Cold4K, f.Hot2M, f.Hot4K},
			Stacked: true,
		}).WriteSVG})
	}
	return out, nil
}

// pairs is RunAll's pairs in app order, without the apps it did not run.
func pairs(opt Options, runs map[string]*AppRun) []*AppRun {
	var out []*AppRun
	for _, spec := range opt.apps() {
		if run, ok := runs[spec.Name]; ok {
			out = append(out, run)
		}
	}
	return out
}

// Fig3Series is one app's slow-memory access rate over time in paper units.
type Fig3Series struct {
	App string
	// Rate is accesses/sec (paper units) per window.
	Rate *stats.Series
	// MeanPostWarmup is the average rate after warmup.
	MeanPostWarmup float64
	// TargetRate is the x/(100·ts) line (30K/s at 3%, 1us).
	TargetRate float64
}

// Fig3 extracts the slow-memory access-rate series from completed runs.
func Fig3(runs map[string]*AppRun, opt Options) []Fig3Series {
	opt = opt.withDefaults()
	target := opt.SlowdownPct / 100 / 1e-6 // paper units: ts = 1us
	var out []Fig3Series
	for _, run := range pairs(opt, runs) {
		spec := run.Thermo.Spec
		conv := stats.NewSeries("slow_rate_" + spec.Name)
		for i, ts := range run.Thermo.Result.SlowRate.Times {
			conv.Append(ts, opt.Scale.PaperRate(run.Thermo.Result.SlowRate.Values[i]))
		}
		out = append(out, Fig3Series{spec.Name, conv, conv.MeanAfter(opt.Scale.WarmupNs), target})
	}
	return out
}

// Fig3Table renders the series side by side.
func Fig3Table(series []Fig3Series) *report.Table {
	ss := make([]*stats.Series, len(series))
	for i, s := range series {
		ss[i] = s.Rate
	}
	title := "Figure 3: slow memory access rate over time (accesses/sec, paper units)"
	if len(series) > 0 {
		title += fmt.Sprintf(" — target %.0f/s", series[0].TargetRate)
	}
	return report.SeriesTable(title, ss...)
}

// Table2Row is one app's footprint.
type Table2Row struct {
	App    string
	RSSGB  float64
	FileGB float64
}

// Table2 measures end-of-run footprints in paper units (scaled back up).
func Table2(runs map[string]*AppRun, opt Options) []Table2Row {
	opt = opt.withDefaults()
	var rows []Table2Row
	for _, run := range pairs(opt, runs) {
		spec := run.Thermo.Spec
		rss, file := run.Thermo.App.FootprintBytes()
		rows = append(rows, Table2Row{
			App:    spec.Name,
			RSSGB:  float64(rss*opt.Scale.Div) / (1 << 30),
			FileGB: float64(file*opt.Scale.Div) / (1 << 30),
		})
	}
	return rows
}

// Table2Table renders the rows.
func Table2Table(rows []Table2Row) *report.Table {
	t := report.NewTable("Table 2: application memory footprints (paper units)",
		"application", "resident_set_gb", "file_mapped_gb")
	for _, r := range rows {
		t.AddF(r.App, r.RSSGB, r.FileGB)
	}
	return t
}

// ColdDataFigure is one app's footprint-over-time breakdown plus the
// headline numbers the paper quotes in each figure caption.
type ColdDataFigure struct {
	App          string
	Slowdown     float64
	ColdFraction float64
	// Series are in paper-unit GB.
	Cold2M, Cold4K, Hot2M, Hot4K *stats.Series
}

// ColdData builds the Figure 5-10 artifacts from completed runs.
func ColdData(runs map[string]*AppRun, opt Options) []ColdDataFigure {
	opt = opt.withDefaults()
	toGB := func(name string, s *stats.Series) *stats.Series {
		out := stats.NewSeries(name)
		for i, ts := range s.Times {
			out.Append(ts, s.Values[i]*float64(opt.Scale.Div)/(1<<30))
		}
		return out
	}
	var out []ColdDataFigure
	for _, run := range pairs(opt, runs) {
		spec := run.Thermo.Spec
		r := run.Thermo.Result
		out = append(out, ColdDataFigure{spec.Name, run.Slowdown, run.ColdFraction,
			toGB("2MB_cold_GB", r.Cold2M), toGB("4KB_cold_GB", r.Cold4K),
			toGB("2MB_hot_GB", r.Hot2M), toGB("4KB_hot_GB", r.Hot4K)})
	}
	return out
}

// Table renders one cold-data figure.
func (f ColdDataFigure) Table() *report.Table {
	title := fmt.Sprintf(
		"Cold data over time: %s (slowdown %.1f%%, mean cold fraction %.0f%%)",
		f.App, f.Slowdown*100, f.ColdFraction*100)
	return report.SeriesTable(title, f.Cold2M, f.Cold4K, f.Hot2M, f.Hot4K)
}

// Table3Row is one app's migration traffic.
type Table3Row struct {
	App string
	// MigrationMBps is demotion traffic, false-classification is the
	// correction (promotion) traffic — both in paper-unit MB/s.
	MigrationMBps  float64
	FalseClassMBps float64
}

// Table3 extracts migration bandwidths from completed runs, converting to
// paper units: bytes scale back up by the footprint divisor, and the run's
// compressed timeline stretches back out by the scan-interval compression.
func Table3(runs map[string]*AppRun, opt Options) []Table3Row {
	opt = opt.withDefaults()
	var rows []Table3Row
	for _, run := range pairs(opt, runs) {
		spec := run.Thermo.Spec
		m := run.Thermo.Machine.Migrator().Meter()
		now := run.Thermo.Machine.Clock()
		conv := float64(opt.Scale.Div) / opt.Scale.PeriodCompression()
		rows = append(rows, Table3Row{
			App:            spec.Name,
			MigrationMBps:  m.RateMBps(mem.Demotion, now) * conv,
			FalseClassMBps: m.RateMBps(mem.Promotion, now) * conv,
		})
	}
	return rows
}

// Table3Table renders the rows.
func Table3Table(rows []Table3Row) *report.Table {
	t := report.NewTable("Table 3: migration and false-classification rates (MB/s, paper units)",
		"application", "migration_mbps", "false_classification_mbps")
	for _, r := range rows {
		t.AddF(r.App, r.MigrationMBps, r.FalseClassMBps)
	}
	return t
}

// Table4Row is one app's memory cost savings across slow-memory price
// points.
type Table4Row struct {
	App string
	// SavingsPct is indexed like pricing.PaperRatios (1/3, 1/4, 1/5).
	SavingsPct [3]float64
}

// Table4 computes cost savings from the measured cold fractions.
func Table4(runs map[string]*AppRun, opt Options) ([]Table4Row, error) {
	opt = opt.withDefaults()
	var rows []Table4Row
	for _, run := range pairs(opt, runs) {
		spec := run.Thermo.Spec
		row := Table4Row{App: spec.Name}
		for i, ratio := range pricing.PaperRatios {
			s, err := pricing.Savings(run.ColdFraction, ratio)
			if err != nil {
				return nil, err
			}
			row.SavingsPct[i] = s * 100
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table4Table renders the rows.
func Table4Table(rows []Table4Row) *report.Table {
	t := report.NewTable("Table 4: memory spending savings vs all-DRAM",
		"application", "slow_cost_0.33x", "slow_cost_0.25x", "slow_cost_0.2x")
	for _, r := range rows {
		t.AddF(r.App,
			fmt.Sprintf("%.0f%%", r.SavingsPct[0]),
			fmt.Sprintf("%.0f%%", r.SavingsPct[1]),
			fmt.Sprintf("%.0f%%", r.SavingsPct[2]))
	}
	return t
}
