package harness

import (
	"fmt"
	"sort"

	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

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
		pts = append(pts, fig2Point{pol.scanner.HotSubpages(base, 3), out.Scale.paperRate(float64(counts[base]) / durSec)})
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

// pairRows is the runs the paper's Figures 3 and 5-10 and Tables 2-4 read:
// per app, the all-DRAM baseline and Thermostat at the run's target.
func pairRows(opt Options) []row {
	var rows []row
	for _, spec := range opt.apps() {
		rows = append(rows, row{spec: spec, sc: opt.Scale,
			arms: []arm{baseline, {name: "thermostat", plan: Plan{SlowdownPct: opt.SlowdownPct}}}})
	}
	return rows
}

// table2 is Table 2: each app's end-of-run footprint under Thermostat, in
// paper units (scaled back up).
func table2(opt Options) ([]row, render) {
	rows := pairRows(opt)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable("Table 2: application memory footprints (paper units)",
			"application", "resident_set_gb", "file_mapped_gb")
		gb := func(bytes uint64) float64 { return float64(bytes*opt.Scale.Div) / (1 << 30) }
		for i, r := range rows {
			rss, file := outs[i][1].App.FootprintBytes()
			t.AddF(r.spec.Name, gb(rss), gb(file))
		}
		return []Output{{Name: "table2", Table: t}}, nil
	}
}

// fig3 is Figure 3: each app's slow-memory access rate over time under
// Thermostat in paper units, against the x/(100·ts) target line (30K/s at
// 3%, ts = 1us).
func fig3(opt Options) ([]row, render) {
	rows := pairRows(opt)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		target := opt.SlowdownPct / 100 / 1e-6
		var series []*stats.Series
		for i, r := range rows {
			rate := outs[i][1].Result.SlowRate
			s := stats.NewSeries("slow_rate_" + r.spec.Name)
			for j, ts := range rate.Times {
				s.Append(ts, opt.Scale.paperRate(rate.Values[j]))
			}
			series = append(series, s)
		}
		t := report.SeriesTable(fmt.Sprintf(
			"Figure 3: slow memory access rate over time (accesses/sec, paper units) — target %.0f/s", target),
			series...)
		return []Output{{Name: "fig3", Table: t, SVG: (&report.LinePlot{
			Title:  "Figure 3: slow memory access rate over time",
			XLabel: "time (s)", YLabel: "accesses/sec (paper units)",
			Series: series, HLine: target,
		}).WriteSVG}}, nil
	}
}

// coldData is Figures 5-10, one per app: Thermostat's footprint over time
// split into cold and hot 2MB and 4KB pages in paper-unit GB, headed by the
// slowdown and mean cold fraction the paper quotes in each caption.
func coldData(opt Options) ([]row, render) {
	rows := pairRows(opt)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		toGB := func(name string, s *stats.Series) *stats.Series {
			out := stats.NewSeries(name)
			for i, ts := range s.Times {
				out.Append(ts, s.Values[i]*float64(opt.Scale.Div)/(1<<30))
			}
			return out
		}
		var out []Output
		for i, r := range rows {
			base, th := outs[i][0].Result, outs[i][1].Result
			slowdown := sim.Slowdown(base, th) * 100
			series := []*stats.Series{toGB("2MB_cold_GB", th.Cold2M), toGB("4KB_cold_GB", th.Cold4K),
				toGB("2MB_hot_GB", th.Hot2M), toGB("4KB_hot_GB", th.Hot4K)}
			t := report.SeriesTable(fmt.Sprintf(
				"Cold data over time: %s (slowdown %.1f%%, mean cold fraction %.0f%%)",
				r.spec.Name, slowdown, th.MeanColdFraction(opt.Scale.WarmupNs)*100), series...)
			out = append(out, Output{Name: "colddata-" + r.spec.Name, Table: t, SVG: (&report.LinePlot{
				Title:  fmt.Sprintf("Cold data over time: %s (slowdown %.1f%%)", r.spec.Name, slowdown),
				XLabel: "time (s)", YLabel: "memory footprint (GB)",
				Series: series, Stacked: true,
			}).WriteSVG})
		}
		return out, nil
	}
}

// table3 is Table 3: each app's migration (demotion) and false-
// classification (correction, i.e. promotion) traffic under Thermostat in
// paper-unit MB/s: bytes scale back up by the footprint divisor, and the
// run's compressed timeline stretches back out by the scan-interval
// compression.
func table3(opt Options) ([]row, render) {
	rows := pairRows(opt)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable("Table 3: migration and false-classification rates (MB/s, paper units)",
			"application", "migration_mbps", "false_classification_mbps")
		conv := float64(opt.Scale.Div) / opt.Scale.periodCompression()
		for i, r := range rows {
			m := outs[i][1].Machine
			meter, now := m.Migrator().Meter(), m.Clock()
			t.AddF(r.spec.Name, meter.RateMBps(mem.Demotion, now)*conv, meter.RateMBps(mem.Promotion, now)*conv)
		}
		return []Output{{Name: "table3", Table: t}}, nil
	}
}

// table4 is Table 4: the memory spending each app's mean cold fraction under
// Thermostat saves against all-DRAM, at each PaperRatios slow-memory price.
func table4(opt Options) ([]row, render) {
	rows := pairRows(opt)
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable("Table 4: memory spending savings vs all-DRAM",
			"application", "slow_cost_0.33x", "slow_cost_0.25x", "slow_cost_0.2x")
		for i, r := range rows {
			cold := outs[i][1].Result.MeanColdFraction(opt.Scale.WarmupNs)
			cells := []any{r.spec.Name}
			for _, ratio := range PaperRatios {
				s, err := Savings(twoTier(cold, ratio))
				if err != nil {
					return nil, err
				}
				cells = append(cells, fmt.Sprintf("%.0f%%", s*100))
			}
			t.AddF(cells...)
		}
		return []Output{{Name: "table4", Table: t}}, nil
	}
}
