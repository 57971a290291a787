package harness

import (
	"strconv"
	"testing"

	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

func ablationOpt() Options {
	sc := Tiny()
	sc.DurationNs = 5e9
	sc.WarmupNs = 1e9
	return Options{Scale: sc}
}

// ablationRow returns the study row of the ablations grid whose first arm
// after the baseline is named first.
func ablationRow(t *testing.T, opt Options, first string) row {
	t.Helper()
	rows, _ := ablations(opt)
	for _, r := range rows {
		if r.arms[1].name == first {
			return r
		}
	}
	t.Fatalf("no ablation row starts with arm %q", first)
	return row{}
}

// runRow runs one row on the grid at the given worker count.
func runRow(t *testing.T, workers int, r row) []*Outcome {
	t.Helper()
	outs, err := runRows(workers, []row{r})
	if err != nil {
		t.Fatal(err)
	}
	return outs[0]
}

func TestAblationPoisonBudget(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	r := ablationRow(t, ablationOpt(), "K=10")
	r.spec = workload.MySQLTPCC()
	outs := runRow(t, 0, r)
	if len(outs) != 5 {
		t.Fatalf("outcomes = %d, want the baseline and 4 budgets", len(outs))
	}
	if tbl := ablationTable("K", r, outs); len(tbl.Rows) != 4 || tbl.String() == "" {
		t.Fatalf("table has %d rows", len(tbl.Rows))
	}
	// More poisons cost more faults (monotone in K, allowing noise at the
	// extremes: compare the smallest and largest budgets).
	if k10, k100 := outs[1].Result.Metrics.PoisonFaults, outs[4].Result.Metrics.PoisonFaults; k10 >= k100 {
		t.Errorf("faults not increasing with K: %d (K=10) vs %d (K=100)", k10, k100)
	}
	for j, out := range outs[1:] {
		if out.Result.MeanColdFraction(r.sc.WarmupNs) <= 0 {
			t.Errorf("%s: no cold data found", r.arms[j+1].name)
		}
	}
}

func TestAblationCorrection(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	opt := ablationOpt()
	opt.Scale.DurationNs = 9e9
	outs := runRow(t, 0, ablationRow(t, opt, "corrector on"))
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	base, on, off := outs[0].Result, outs[1], outs[2]
	if on.Engine.Stats().Promotions == 0 {
		t.Error("corrector made no promotions under rotation")
	}
	if off.Engine.Stats().Promotions != 0 {
		t.Error("disabled corrector still promoted")
	}
	// Without correction, newly-hot pages stay in slow memory: slowdown
	// must be clearly worse.
	if sOn, sOff := sim.Slowdown(base, on.Result), sim.Slowdown(base, off.Result); sOff <= sOn {
		t.Errorf("correction off (%.3f) not worse than on (%.3f)", sOff, sOn)
	}
}

func TestAblationTrapPlacement(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	r := ablationRow(t, ablationOpt(), "trap in guest")
	r.spec = workload.MySQLTPCC()
	outs := runRow(t, 0, r)
	guest, host := sim.Slowdown(outs[0].Result, outs[1].Result), sim.Slowdown(outs[0].Result, outs[2].Result)
	// Host-side trapping charges a vmexit per fault: overhead must rise.
	if host < guest {
		t.Errorf("host trap (%.4f) cheaper than guest trap (%.4f)", host, guest)
	}
}

func TestAblationCounters(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	r, table := counters(ablationOpt())
	tbl := table(runRow(t, 0, r))
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	relErr := map[string]float64{}
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		relErr[row[0]] = v
	}
	// §6.1: the CM bit counts true LLC misses — it must be the most
	// accurate mechanism.
	cm, bt := relErr["cm-bit"], relErr["badgertrap"]
	if cm > bt {
		t.Errorf("CM-bit error %.3f worse than BadgerTrap %.3f", cm, bt)
	}
	if cm > 0.05 {
		t.Errorf("CM-bit should be near-exact, got %.3f", cm)
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}

func TestCompareBaselines(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	opt := ablationOpt().withDefaults()
	opt.Apps = []workload.Spec{workload.MySQLTPCC()}
	rows, render := baselines(opt)
	outs, err := runRows(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs[0]) != 4 {
		t.Fatalf("arms = %d", len(outs[0]))
	}
	warmup := rows[0].sc.WarmupNs
	if outs[0][1].Result.MeanColdFraction(warmup) == 0 {
		t.Error("profile-guided placed nothing")
	}
	if outs[0][3].Result.MeanColdFraction(warmup) == 0 {
		t.Error("thermostat placed nothing")
	}
	o, err := render(outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(o) != 1 || o[0].Name != "baselines-mysql-tpcc" || len(o[0].Table.Rows) != 4 {
		t.Fatalf("outputs %+v", o)
	}
}
