// Benchmarks regenerating every table and figure of the paper's evaluation
// at bench scale (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding experiment end to end and reports its headline numbers as
// custom metrics; run with -v to also see the regenerated rows.
//
// cmd/repro produces the same artifacts at full repro scale.
package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

// benchOptions returns a small, fast profile: the shapes survive, absolute
// statistics are noisier than cmd/repro's.
func benchOptions(apps ...workload.Spec) Options {
	sc := Tiny()
	sc.DurationNs = 6e9
	sc.WarmupNs = 15e8
	return Options{Scale: sc, Apps: apps}
}

// experiment runs the named repro experiment and returns its outputs by
// name (a figure's printed chart under "").
func experiment(b *testing.B, name string, opt Options) map[string]Output {
	b.Helper()
	return outputs(b, opt, name)
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

// coldDataBench runs one app's Figure 5-10 and reports the slowdown and
// mean cold fraction its caption quotes.
func coldDataBench(b *testing.B, spec workload.Spec) {
	b.Helper()
	opt := benchOptions(spec)
	for i := 0; i < b.N; i++ {
		t := experiment(b, "colddata", opt)["colddata-"+spec.Name].Table
		var slowdown, cold float64
		caption := t.Title[strings.Index(t.Title, "("):]
		if _, err := fmt.Sscanf(caption, "(slowdown %f%%, mean cold fraction %f%%)", &slowdown, &cold); err != nil {
			b.Fatalf("caption %q: %v", caption, err)
		}
		b.ReportMetric(cold, "cold_%")
		b.ReportMetric(slowdown, "slowdown_%")
		if i == 0 {
			b.Log("\n" + t.String())
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

// BenchmarkFig3SlowMemRate runs redis, whose slow-memory access rate is
// well above zero after warm-up at this scale (mysql-tpcc's reads 0 in every
// window, so its mean could not show a change).
func BenchmarkFig3SlowMemRate(b *testing.B) {
	opt := benchOptions(workload.Redis())
	for i := 0; i < b.N; i++ {
		t := experiment(b, "fig3", opt)["fig3"].Table
		if len(t.Header) != 2 {
			b.Fatalf("series %v, want one", t.Header[1:])
		}
		var sum float64
		var n int
		for _, row := range t.Rows {
			if num(b, row[0])*1e9 >= float64(opt.Scale.WarmupNs) {
				sum += num(b, row[1])
				n++
			}
		}
		var target float64
		if _, err := fmt.Sscanf(t.Title[strings.LastIndex(t.Title, "target"):], "target %f/s", &target); err != nil {
			b.Fatalf("title %q: %v", t.Title, err)
		}
		if n == 0 || sum == 0 {
			b.Fatalf("slow-memory rate after warm-up is 0 over %d windows: the metric cannot show a change", n)
		}
		b.ReportMetric(sum/float64(n), "slow_rate_per_s")
		b.ReportMetric(target, "target_per_s")
	}
}

func BenchmarkTable2Footprints(b *testing.B) {
	opt := benchOptions(workload.Cassandra(workload.WriteHeavy))
	for i := 0; i < b.N; i++ {
		row := experiment(b, "table2", opt)["table2"].Table.Rows[0]
		b.ReportMetric(num(b, row[1]), "rss_gb")
		b.ReportMetric(num(b, row[2]), "file_gb")
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
		row := experiment(b, "table3", opt)["table3"].Table.Rows[0]
		b.ReportMetric(num(b, row[1]), "migration_MBps")
		b.ReportMetric(num(b, row[2]), "falseclass_MBps")
	}
}

func BenchmarkTable4CostSavings(b *testing.B) {
	opt := benchOptions(workload.Cassandra(workload.WriteHeavy))
	for i := 0; i < b.N; i++ {
		row := experiment(b, "table4", opt)["table4"].Table.Rows[0]
		b.ReportMetric(num(b, strings.TrimSuffix(row[1], "%")), "savings@0.33x_%")
		b.ReportMetric(num(b, strings.TrimSuffix(row[3], "%")), "savings@0.2x_%")
	}
}
