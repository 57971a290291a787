package harness

import (
	"fmt"
	"strings"
	"testing"

	"thermostat/internal/core"
	"thermostat/internal/mem"
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

// renderOpt is tiny scale with its warm-up at zero, so fakeRun's one
// window counts.
func renderOpt(apps ...workload.Spec) Options {
	sc := Tiny()
	sc.WarmupNs = 0
	return Options{Scale: sc, Apps: apps}.withDefaults()
}

// mapped is an outcome on a real machine with spec's app mapped at tiny
// scale and the clock at 1 s, no access made.
func mapped(t *testing.T, spec workload.Spec) *Outcome {
	t.Helper()
	a, err := Assemble(spec, Tiny(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.App.Init(a.Machine); err != nil {
		t.Fatal(err)
	}
	a.Machine.AdvanceClockTo(1e9)
	return &Outcome{Spec: spec, Scale: Tiny(), Machine: a.Machine, App: a.App}
}

// renderPair renders grid for one app from its baseline and Thermostat
// outcomes.
func renderPair(t *testing.T, grid func(Options) ([]row, render), opt Options, base, thermo *Outcome) []Output {
	t.Helper()
	_, render := grid(opt)
	o, err := render([][]*Outcome{{base, thermo}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestTable2TableRendering(t *testing.T) {
	t.Parallel()
	th := mapped(t, workload.Redis())
	rss, file := th.App.FootprintBytes()
	if rss == 0 || file == 0 {
		t.Fatalf("redis maps %d resident and %d file bytes", rss, file)
	}
	out := renderPair(t, table2, renderOpt(workload.Redis()), nil, th)[0].Table.String()
	for _, want := range []string{"redis",
		fmt.Sprintf("%.3f", float64(rss*256)/(1<<30)), fmt.Sprintf("%.3f", float64(file*256)/(1<<30))} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable3TableRendering(t *testing.T) {
	t.Parallel()
	th := mapped(t, workload.Redis())
	meter := th.Machine.Migrator().Meter()
	meter.RecordPair(mem.Demotion, mem.Fast, mem.Slow, 10<<20)
	meter.RecordPair(mem.Promotion, mem.Slow, mem.Fast, 5<<20)
	// 10 and 5 MiB in 1 s, times Div 256 over the 75x period compression.
	out := renderPair(t, table3, renderOpt(workload.Redis()), nil, th)[0].Table.String()
	if !strings.Contains(out, "35.791") || !strings.Contains(out, "17.896") {
		t.Errorf("bad render:\n%s", out)
	}
}

func TestTable4TableRendering(t *testing.T) {
	t.Parallel()
	opt := renderOpt(workload.Cassandra(workload.WriteHeavy))
	out := renderPair(t, table4, opt, nil, fakeRun(100, 40, 60))[0].Table.String()
	for _, want := range []string{"cassandra", "27%", "30%", "32%"} {
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
	th := fakeRun(100, 0, 1)
	th.Result.SlowRate = stats.NewSeries("")
	th.Result.SlowRate.Append(2e9, 29000/8) // paper units multiply by F = 8
	out := renderPair(t, fig3, renderOpt(workload.Redis()), nil, th)[0].Table.String()
	for _, want := range []string{"target 30000/s", "slow_rate_redis", "2.9e+04"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestColdDataFigureRendering(t *testing.T) {
	t.Parallel()
	// 45 of 100 bytes cold, at 102 vs 100 ops/s.
	o := renderPair(t, coldData, renderOpt(workload.Cassandra(workload.WriteHeavy)),
		fakeRun(102, 0, 100), fakeRun(100, 45, 55))
	if len(o) != 1 || o[0].Name != "colddata-cassandra" || o[0].SVG == nil {
		t.Fatalf("outputs %+v, want one colddata-cassandra figure", o)
	}
	out := o[0].Table.String()
	for _, want := range []string{"cassandra", "slowdown 2.0%", "cold fraction 45%", "2MB_cold_GB"} {
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
