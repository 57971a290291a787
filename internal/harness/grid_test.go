package harness

import (
	"bytes"
	"testing"

	"thermostat/internal/workload"
)

// runRows runs rows as one grid on workers goroutines.
func runRows(workers int, rows []row) ([][]*Outcome, error) {
	var s simulations
	return runGrid(Options{Workers: workers}, s.plan(rows))
}

// pick returns the named experiments of the repro table, in table order.
func pick(tb testing.TB, names ...string) []Experiment {
	tb.Helper()
	var xs []Experiment
	for _, x := range Experiments {
		for _, name := range names {
			if x.Name == name {
				xs = append(xs, x)
			}
		}
	}
	if len(xs) != len(names) {
		tb.Fatalf("experiments %v: found %d", names, len(xs))
	}
	return xs
}

// outputs runs the named experiments through RunExperiments and returns
// every output by name (a figure's printed chart under "").
func outputs(tb testing.TB, opt Options, names ...string) map[string]Output {
	tb.Helper()
	byName := map[string]Output{}
	err := RunExperiments(opt, pick(tb, names...), func(_ string, outs []Output) {
		for _, o := range outs {
			byName[o.Name] = o
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	return byName
}

// outputBytes is everything repro writes for o: its printed text or table,
// its CSV, its SVG and its committed file.
func outputBytes(tb testing.TB, o Output) []byte {
	tb.Helper()
	var b bytes.Buffer
	b.WriteString(o.Text)
	if o.Table != nil {
		b.WriteString(o.Table.String())
		if err := o.Table.WriteCSV(&b); err != nil {
			tb.Fatal(err)
		}
	}
	if o.SVG != nil {
		if err := o.SVG(&b); err != nil {
			tb.Fatal(err)
		}
	}
	b.Write(o.File)
	return b.Bytes()
}

// TestRunExperimentsPlansEachIdenticalArmOnce counts the paper's evaluation
// at tiny scale: its grids plan 138 arms (the five experiments that read
// the baseline/Thermostat pairs plan the same 12 each), and 69 distinct
// simulations run them.
func TestRunExperimentsPlansEachIdenticalArmOnce(t *testing.T) {
	t.Parallel()
	opt := Options{Scale: Tiny()}.withDefaults()
	var s simulations
	arms := 0
	for _, x := range Experiments {
		if !x.InAll {
			continue
		}
		if x.grid == nil {
			t.Fatalf("%s is in the paper's evaluation but not a grid", x.Name)
		}
		rows, _ := x.grid(opt)
		for _, r := range s.plan(rows) {
			arms += len(r)
		}
	}
	if arms != 138 || len(s) != 69 {
		t.Errorf("paper evaluation plans %d arms as %d simulations, want 138 as 69", arms, len(s))
	}
	readers := map[string]int{}
	for _, sm := range s {
		readers[sm.label] = sm.readers
	}
	// The pairs' cassandra baseline is read by the five paired experiments,
	// Figure 11, the §7 comparison and four ablation studies.
	if got := readers["cassandra/baseline"]; got != 11 {
		t.Errorf("cassandra/baseline read by %d arms, want 11", got)
	}
}

// TestHooksAndPoliciesNeverShare: an arm whose Plan carries a hook or a
// Policy object runs on its own even beside an arm that differs from it by
// that alone, while a plain arm planned twice runs once.
func TestHooksAndPoliciesNeverShare(t *testing.T) {
	t.Parallel()
	opt := Options{Scale: Tiny()}.withDefaults()
	counters, _ := counters(opt)
	studies, _ := ablations(opt)
	k := studies[0]
	if k.arms[3].name != "K=50" {
		t.Fatalf("ablation-k arm 3 is %q, want K=50", k.arms[3].name)
	}
	plainBase := row{spec: counters.spec, sc: counters.sc, arms: []arm{baseline}}
	plainThermo := row{spec: k.spec, sc: k.sc, arms: []arm{{name: "thermostat", plan: Plan{SlowdownPct: 3}}}}
	var s simulations
	grid := s.plan([]row{counters, k, plainBase, plainThermo, plainBase})
	if grid[0][0] == grid[2][0] {
		t.Error("the counters row's page-counting baseline shares the plain baseline")
	}
	if grid[1][3] == grid[3][0] {
		t.Error("ablation K=50 shares the plain thermostat arm")
	}
	if grid[2][0] != grid[4][0] {
		t.Error("a plain baseline planned twice runs twice")
	}

	fig1Rows, _ := fig1(opt)
	first, again := s.plan(fig1Rows), s.plan(fig1Rows)
	for i := range first {
		if first[i][0] == again[i][0] {
			t.Errorf("%s: kstaled arm planned twice shares one simulation", fig1Rows[i].spec.Name)
		}
	}
}

// TestSharedRunsLeaveOutputsUnchanged: an experiment renders the same bytes
// whether it runs alone or after experiments whose arms it shares (Figure
// 11's baseline and 3% arm) or that run hooked twins of them (ablations).
func TestSharedRunsLeaveOutputsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("integration run")
	}
	t.Parallel()
	opt := Options{Scale: equivScale(), Apps: []workload.Spec{workload.Redis()}}
	alone := outputs(t, opt, "table3")["table3"]
	shared := outputs(t, opt, "fig11", "ablations", "table3")["table3"]
	if a, s := outputBytes(t, alone), outputBytes(t, shared); !bytes.Equal(a, s) {
		t.Errorf("table3 alone:\n%s\nafter fig11 and ablations:\n%s", a, s)
	}
}
