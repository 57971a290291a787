// Benchmarks regenerating every table and figure of the paper's evaluation
// at bench scale (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment end to end and reports its headline numbers as
// custom metrics; run with -v to also see the regenerated rows.
//
// cmd/repro produces the same artifacts at full repro scale.
package thermostat

import (
	"fmt"
	"strconv"
	"testing"

	"thermostat/internal/harness"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

// benchOptions returns a small, fast profile: the shapes survive, absolute
// statistics are noisier than cmd/repro's.
func benchOptions(apps ...workload.Spec) harness.Options {
	sc := harness.Tiny()
	sc.DurationNs = 6e9
	sc.WarmupNs = 15e8
	return harness.Options{Scale: sc, Apps: apps}
}

// experiment runs the named repro experiment and returns its outputs by
// name (a figure's printed chart under "").
func experiment(b *testing.B, name string, opt harness.Options) map[string]harness.Output {
	b.Helper()
	for _, x := range harness.Experiments {
		if x.Name == name {
			outs, err := x.Run(opt, nil)
			if err != nil {
				b.Fatal(err)
			}
			byName := map[string]harness.Output{}
			for _, o := range outs {
				byName[o.Name] = o
			}
			return byName
		}
	}
	b.Fatalf("no experiment %q", name)
	return nil
}

// num parses one numeric table cell.
func num(b *testing.B, cell string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

func BenchmarkFig1IdleFraction(b *testing.B) {
	opt := benchOptions(workload.MySQLTPCC(), workload.Redis())
	for i := 0; i < b.N; i++ {
		out := experiment(b, "fig1", opt)
		idle := map[string]float64{}
		for _, row := range out["fig1"].Table.Rows {
			idle[row[0]] = num(b, row[1])
		}
		b.ReportMetric(idle["mysql-tpcc"], "mysql_idle_%")
		b.ReportMetric(idle["redis"], "redis_idle_%")
		if i == 0 {
			b.Log("\n" + out[""].Text)
		}
	}
}

func BenchmarkFig2AccessedBitCorrelation(b *testing.B) {
	opt := benchOptions()
	opt.Scale.DurationNs = 4e9
	for i := 0; i < b.N; i++ {
		t := experiment(b, "fig2", opt)["fig2"].Table
		var hot, rate []float64
		for _, row := range t.Rows {
			hot = append(hot, num(b, row[0]))
			rate = append(rate, num(b, row[1]))
		}
		b.ReportMetric(stats.Pearson(hot, rate), "pearson_r")
		b.ReportMetric(float64(len(t.Rows)), "pages")
	}
}

func BenchmarkTable1HugePageGain(b *testing.B) {
	opt := benchOptions(workload.Redis(), workload.WebSearch())
	for i := 0; i < b.N; i++ {
		t := experiment(b, "table1", opt)["table1"].Table
		gain := map[string]float64{}
		for _, row := range t.Rows {
			gain[row[0]] = num(b, row[1])
		}
		b.ReportMetric(gain["redis"], "redis_gain_%")
		b.ReportMetric(gain["web-search"], "websearch_gain_%")
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

// coldDataBench runs one app's Figure 5-10 style experiment.
func coldDataBench(b *testing.B, spec workload.Spec) {
	b.Helper()
	opt := benchOptions(spec)
	for i := 0; i < b.N; i++ {
		runs, err := harness.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
		r := runs[spec.Name]
		b.ReportMetric(r.ColdFraction*100, "cold_%")
		b.ReportMetric(r.Slowdown*100, "slowdown_%")
		if i == 0 {
			for _, f := range harness.ColdData(runs, opt) {
				b.Log("\n" + f.Table().String())
			}
		}
	}
}

func BenchmarkFig5CassandraColdData(b *testing.B) {
	coldDataBench(b, workload.Cassandra(workload.WriteHeavy))
}

func BenchmarkFig6TPCCColdData(b *testing.B) {
	coldDataBench(b, workload.MySQLTPCC())
}

func BenchmarkFig7AerospikeColdData(b *testing.B) {
	coldDataBench(b, workload.Aerospike(workload.ReadHeavy))
}

func BenchmarkFig8RedisColdData(b *testing.B) {
	coldDataBench(b, workload.Redis())
}

func BenchmarkFig9AnalyticsColdData(b *testing.B) {
	coldDataBench(b, workload.InMemAnalytics())
}

func BenchmarkFig10WebSearchColdData(b *testing.B) {
	coldDataBench(b, workload.WebSearch())
}

func BenchmarkFig3SlowMemRate(b *testing.B) {
	opt := benchOptions(workload.MySQLTPCC())
	for i := 0; i < b.N; i++ {
		runs, err := harness.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
		series := harness.Fig3(runs, opt)
		if len(series) != 1 {
			b.Fatal("missing series")
		}
		b.ReportMetric(series[0].MeanPostWarmup, "slow_rate_per_s")
		b.ReportMetric(series[0].TargetRate, "target_per_s")
	}
}

func BenchmarkTable2Footprints(b *testing.B) {
	opt := benchOptions(workload.Cassandra(workload.WriteHeavy))
	for i := 0; i < b.N; i++ {
		runs, err := harness.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows := harness.Table2(runs, opt)
		b.ReportMetric(rows[0].RSSGB, "rss_gb")
		b.ReportMetric(rows[0].FileGB, "file_gb")
	}
}

func BenchmarkFig11SlowdownSweep(b *testing.B) {
	opt := benchOptions(workload.MySQLTPCC())
	for i := 0; i < b.N; i++ {
		t := experiment(b, "fig11", opt)["fig11"].Table
		for _, row := range t.Rows {
			if target := num(b, row[1]); target == 3 || target == 10 {
				b.ReportMetric(num(b, row[2]), fmt.Sprintf("cold@%g%%_%%", target))
			}
		}
		if i == 0 {
			b.Log("\n" + t.String())
		}
	}
}

func BenchmarkTable3MigrationBandwidth(b *testing.B) {
	opt := benchOptions(workload.Redis())
	for i := 0; i < b.N; i++ {
		runs, err := harness.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows := harness.Table3(runs, opt)
		b.ReportMetric(rows[0].MigrationMBps, "migration_MBps")
		b.ReportMetric(rows[0].FalseClassMBps, "falseclass_MBps")
	}
}

func BenchmarkTable4CostSavings(b *testing.B) {
	opt := benchOptions(workload.Cassandra(workload.WriteHeavy))
	for i := 0; i < b.N; i++ {
		runs, err := harness.RunAll(opt)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := harness.Table4(runs, opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].SavingsPct[0], "savings@0.33x_%")
		b.ReportMetric(rows[0].SavingsPct[2], "savings@0.2x_%")
	}
}

// BenchmarkAccessPath measures the simulator's raw access throughput (the
// cost of one simulated memory access through TLB, walk, cache, and tiers).
func BenchmarkAccessPath(b *testing.B) {
	m, err := NewMachine(DefaultMachineConfig(64<<20, 64<<20))
	if err != nil {
		b.Fatal(err)
	}
	app, err := NewWorkload(Redis(), 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, w := app.Next()
		if _, err := m.Access(v, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessBatch measures the batched access engine on the same
// machine and workload as BenchmarkAccessPath; the per-op delta between the
// two is the overhead AccessBatch amortizes (VPID fetch, counter increments,
// per-op call dispatch).
func BenchmarkAccessBatch(b *testing.B) {
	m, err := NewMachine(DefaultMachineConfig(64<<20, 64<<20))
	if err != nil {
		b.Fatal(err)
	}
	app, err := NewWorkload(Redis(), 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		b.Fatal(err)
	}
	const batch = 2048
	reqs := make([]sim.Req, batch)
	lats := make([]int64, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		n := batch
		if rem := b.N - i; rem < n {
			n = rem
		}
		got := app.NextBatch(reqs[:n])
		if err := m.AccessBatch(reqs[:got], 0, lats[:got], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRun times one seeded Thermostat run of spec at sc per iteration.
func benchRun(b *testing.B, spec workload.Spec, sc harness.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := harness.Run(spec, sc, harness.Plan{SlowdownPct: 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Result.Ops), "sim_ops")
		}
	}
}

// BenchmarkRunRedis measures the end-to-end wall-clock of one seeded
// Thermostat run (redis at tiny scale): workload generation, the access
// path, policy scans and migrations together. This is the single-run
// latency every experiment in the harness pays per grid cell.
func BenchmarkRunRedis(b *testing.B) {
	sc := harness.Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	benchRun(b, workload.Redis(), sc)
}

// BenchmarkRunWebSearch is BenchmarkRunRedis for a Zipfian app: web-search
// at bench scale draws 99.6 % of its accesses through rng.Zipfian.Next,
// redis none, so only this one sees what request generation costs.
func BenchmarkRunWebSearch(b *testing.B) {
	sc := harness.Bench()
	sc.DurationNs = 20e9
	sc.WarmupNs = 4e9
	benchRun(b, workload.WebSearch(), sc)
}

// BenchmarkFleetNight is the fleet's counterpart: the four-tenant night cast
// on one machine under fleet.Run at tiny scale (no baselines, the default
// unconstrained pool) — the planned WRR interleave, per-tenant request
// draws, arbiter rounds, an arrival and a departure on top of what
// BenchmarkRunRedis pays per access.
func BenchmarkFleetNight(b *testing.B) {
	sc := harness.Tiny()
	for i := 0; i < b.N; i++ {
		out, err := harness.FleetRun(harness.FleetOptions{Scale: sc, Tenants: harness.FleetNightTenants(sc)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Result.Global.Ops), "sim_ops")
		}
	}
}
