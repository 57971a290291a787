package harness

import (
	"strings"
	"testing"

	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

// fakeRun is a finished run at the given throughput whose one window holds
// cold and hot footprint bytes.
func fakeRun(throughput, cold, hot float64) *Outcome {
	series := func(v float64) *stats.Series {
		s := stats.NewSeries("")
		s.Append(1e9, v)
		return s
	}
	return &Outcome{Result: &sim.RunResult{Throughput: throughput,
		Cold2M: series(cold), Cold4K: series(0), Hot2M: series(hot), Hot4K: series(0)}}
}

func TestTable1TableRendering(t *testing.T) {
	t.Parallel()
	_, render := table1(Options{Apps: []workload.Spec{workload.Redis(), workload.WebSearch()}})
	o, err := render([][]*Outcome{
		{fakeRun(112.3, 0, 1), fakeRun(100, 0, 1)},
		{fakeRun(100.4, 0, 1), fakeRun(100, 0, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := o[0].Table.String()
	for _, want := range []string{"Table 1", "redis", "12.300", "web-search"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTable2TableRendering(t *testing.T) {
	t.Parallel()
	rows := []Table2Row{{App: "cassandra", RSSGB: 8.01, FileGB: 4.02}}
	out := Table2Table(rows).String()
	if !strings.Contains(out, "cassandra") || !strings.Contains(out, "8.010") {
		t.Errorf("bad render:\n%s", out)
	}
}

func TestTable3TableRendering(t *testing.T) {
	t.Parallel()
	rows := []Table3Row{{App: "redis", MigrationMBps: 11.3, FalseClassMBps: 10}}
	out := Table3Table(rows).String()
	if !strings.Contains(out, "11.300") || !strings.Contains(out, "10.000") {
		t.Errorf("bad render:\n%s", out)
	}
}

func TestTable4TableRendering(t *testing.T) {
	t.Parallel()
	rows := []Table4Row{{App: "cassandra", SavingsPct: [3]float64{27, 30, 32}}}
	out := Table4Table(rows).String()
	for _, want := range []string{"27%", "30%", "32%"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestFig11TableRendering(t *testing.T) {
	t.Parallel()
	_, render := fig11(Options{Apps: []workload.Spec{workload.MySQLTPCC()}})
	base := fakeRun(101.3, 0, 100)
	o, err := render([][]*Outcome{{base, fakeRun(100, 45, 55), fakeRun(100, 46, 54), fakeRun(100, 46, 54)}})
	if err != nil {
		t.Fatal(err)
	}
	out := o[0].Table.String()
	if !strings.Contains(out, "45.000") || !strings.Contains(out, "1.300") || len(o[0].Table.Rows) != 3 {
		t.Errorf("bad render:\n%s", out)
	}
}

func TestFig3TableRendering(t *testing.T) {
	t.Parallel()
	s := stats.NewSeries("slow_rate_redis")
	s.Append(2e9, 29000)
	series := []Fig3Series{{App: "redis", Rate: s, MeanPostWarmup: 29000, TargetRate: 30000}}
	out := Fig3Table(series).String()
	if !strings.Contains(out, "target 30000/s") || !strings.Contains(out, "2.9e+04") {
		t.Errorf("bad render:\n%s", out)
	}
	// Empty input doesn't panic.
	if Fig3Table(nil).String() == "" {
		t.Error("empty Fig3 table should still render a title")
	}
}

func TestColdDataFigureRendering(t *testing.T) {
	t.Parallel()
	mk := func(name string, v float64) *stats.Series {
		s := stats.NewSeries(name)
		s.Append(1e9, v)
		return s
	}
	f := ColdDataFigure{
		App: "cassandra", Slowdown: 0.02, ColdFraction: 0.45,
		Cold2M: mk("2MB_cold_GB", 3.5), Cold4K: mk("4KB_cold_GB", 0.2),
		Hot2M: mk("2MB_hot_GB", 4), Hot4K: mk("4KB_hot_GB", 0),
	}
	out := f.Table().String()
	for _, want := range []string{"cassandra", "2.0%", "45%", "2MB_cold_GB"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestAblationTableRendering(t *testing.T) {
	t.Parallel()
	g, err := Tiny().Group(3)
	if err != nil {
		t.Fatal(err)
	}
	k50 := fakeRun(100, 40, 60)
	k50.Result.Metrics.PoisonFaults = 123
	k50.Engine = core.NewEngine(g, 1)
	r := row{arms: []arm{baseline, {name: "K=50"}}}
	out := ablationTable("Ablation: test", r, []*Outcome{fakeRun(102, 0, 100), k50}).String()
	for _, want := range []string{"K=50", "40.000", "2.000", "123"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}
