package harness

import (
	"strings"
	"testing"

	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

func TestScaleValidate(t *testing.T) {
	t.Parallel()
	for _, sc := range []Scale{repro(), Bench(), Tiny()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
	bad := repro()
	bad.Div = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero Div accepted")
	}
	bad = repro()
	bad.WarmupNs = bad.DurationNs
	if err := bad.Validate(); err == nil {
		t.Error("warmup >= duration accepted")
	}
}

func TestScaleConversions(t *testing.T) {
	t.Parallel()
	sc := repro() // F=4, period 2s
	if got := sc.PaperRate(7500); got != 30000 {
		t.Fatalf("PaperRate = %v", got)
	}
	if got := sc.PeriodCompression(); got != 15 {
		t.Fatalf("PeriodCompression = %v", got)
	}
}

func TestMachineConfigScaling(t *testing.T) {
	t.Parallel()
	sc := repro()
	cfg := sc.MachineConfig(workload.Redis(), true)
	if cfg.TLB.L1Entries != 4 || cfg.TLB.L2Entries != 64 {
		t.Fatalf("TLB = %d/%d", cfg.TLB.L1Entries, cfg.TLB.L2Entries)
	}
	if cfg.LLC.SizeBytes != (45<<20)/16 {
		t.Fatalf("LLC = %d", cfg.LLC.SizeBytes)
	}
	if cfg.FaultLatencyNs != 4000 || cfg.SlowSpec.ReadLatency != 4000 {
		t.Fatal("time dilation not applied to slow latencies")
	}
	// Fast tier must hold the scaled footprint with headroom.
	if cfg.FastSpec.Capacity < (172*(1<<30)/10)/16 {
		t.Fatalf("fast capacity %d too small", cfg.FastSpec.Capacity)
	}
	// Floors at extreme divisors.
	sc.Div = 4096
	cfg = sc.MachineConfig(workload.WebSearch(), true)
	if cfg.TLB.L1Entries < 2 || cfg.TLB.L2Entries < 8 || cfg.LLC.SizeBytes < 1<<20 {
		t.Fatal("scaling floors not applied")
	}
}

func TestGroupParamsFromScale(t *testing.T) {
	t.Parallel()
	sc := repro()
	g, err := sc.Group(3)
	if err != nil {
		t.Fatal(err)
	}
	p := g.Params()
	if p.SamplePeriodNs != sc.PeriodNs || p.SlowMemLatencyNs != 4000 {
		t.Fatalf("params %+v", p)
	}
	// Dilated target: 30000/F.
	if got := p.TargetSlowAccessRate(); got < 7499.9 || got > 7500.1 {
		t.Fatalf("target = %v", got)
	}
}

func TestRunAllTinyTwoApps(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	opt := Options{
		Scale: Tiny(),
		Apps:  []workload.Spec{workload.MySQLTPCC(), workload.WebSearch()},
	}
	runs, err := RunAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range runs {
		if r.Thermo.Result.Ops == 0 {
			t.Fatalf("%s: no ops", name)
		}
		// Thermostat must find cold data in both (each has a large idle
		// region) without blowing the budget. The tiny 8s schedule only
		// covers the start of the discovery ramp, so the bar is low; the
		// repro-scale runs in EXPERIMENTS.md measure the real fractions.
		if r.ColdFraction < 0.05 {
			t.Errorf("%s: cold fraction %.3f too low", name, r.ColdFraction)
		}
		if r.Slowdown > 0.10 {
			t.Errorf("%s: slowdown %.3f too high", name, r.Slowdown)
		}
		st := r.Thermo.Engine.Stats()
		if st.Demotions == 0 {
			t.Errorf("%s: no demotions", name)
		}
	}

	// Downstream artifacts from the same runs.
	t3 := table3(runs, opt)
	if len(t3) != 2 {
		t.Fatalf("Table3 rows = %d", len(t3))
	}
	for _, row := range t3 {
		if row.MigrationMBps < 0 || row.MigrationMBps > 1000 {
			t.Errorf("%s migration rate %v implausible", row.App, row.MigrationMBps)
		}
	}
	t4, err := table4(runs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range t4 {
		if row.SavingsPct[2] < row.SavingsPct[0] {
			t.Errorf("%s: savings must grow as slow memory gets cheaper", row.App)
		}
	}
	t2 := table2(runs, opt)
	for _, row := range t2 {
		if row.RSSGB <= 0 {
			t.Errorf("%s: zero RSS", row.App)
		}
	}
	f3 := fig3Series(runs, opt)
	if len(f3) != 2 {
		t.Fatalf("Fig3 series = %d", len(f3))
	}
	for _, s := range f3 {
		if s.TargetRate != 30000 {
			t.Errorf("target rate = %v", s.TargetRate)
		}
		// The controller keeps the rate within a small multiple of target.
		if s.MeanPostWarmup > 4*s.TargetRate {
			t.Errorf("%s: slow rate %v far above target", s.App, s.MeanPostWarmup)
		}
	}
	cd := coldDataFigures(runs, opt)
	for _, f := range cd {
		if f.Cold2M.Len() == 0 {
			t.Errorf("%s: empty cold series", f.App)
		}
		out := f.Table().String()
		if !strings.Contains(out, "2MB_cold_GB") {
			t.Error("cold series missing from table")
		}
	}
}

func TestTable1TinyOrdering(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	sc := Tiny()
	sc.DurationNs = 3e9
	sc.WarmupNs = 5e8
	rows, _ := table1(Options{Scale: sc, Apps: []workload.Spec{workload.Redis(), workload.WebSearch()}})
	outs, err := runGrid(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	gain := map[string]float64{}
	for i, r := range rows {
		gain[r.spec.Name] = (outs[i][0].Result.Throughput/outs[i][1].Result.Throughput - 1) * 100
	}
	// Table 1's shape: Redis gains most from huge pages, web-search least.
	if gain["redis"] <= gain["web-search"] {
		t.Errorf("huge-page gain ordering wrong: redis %.2f%% vs web-search %.2f%%",
			gain["redis"], gain["web-search"])
	}
	if gain["redis"] <= 0 {
		t.Errorf("redis gain %.2f%% should be positive", gain["redis"])
	}
}

func TestFig2ProducesDispersedScatter(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	sc := Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 5e8
	rows, render := fig2(Options{Scale: sc})
	outs, err := runGrid(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	pts := fig2Points(rows[0].arms[0].plan.Policy.(*splitScan), outs[0][0])
	if len(pts) < 10 {
		t.Fatalf("points = %d", len(pts))
	}
	var xs, ys []float64
	for _, p := range pts {
		xs = append(xs, float64(p.hot))
		ys = append(ys, p.rate)
	}
	// The paper's claim: hot-region counts are a poor predictor of access
	// rate. Perfect correlation would be ~1; we require it to be visibly
	// imperfect.
	if r := stats.Pearson(xs, ys); r > 0.8 {
		t.Errorf("Pearson r = %.3f: Accessed bits predict rates too well", r)
	}
	o, err := render(outs)
	if err != nil || len(o) != 1 || len(o[0].Table.Rows) != len(pts) {
		t.Fatalf("render: %v, %+v", err, o)
	}
}

func TestFig1IdleFractionsShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	sc := Tiny()
	sc.TimeDilate = 2 // shrink the idle window so the test stays fast
	opt := Options{Scale: sc, Apps: []workload.Spec{workload.MySQLTPCC(), workload.Aerospike(workload.ReadHeavy)}}
	rows, render := fig1(opt)
	outs, err := runGrid(0, rows)
	if err != nil {
		t.Fatal(err)
	}
	idle := map[string]float64{}
	for _, r := range rows {
		idle[r.spec.Name] = r.arms[0].plan.Policy.(*scanOnly).scanner.IdleFraction(idleScans)
	}
	// MySQL's LINEITEM-dominated footprint idles far more than Aerospike's
	// uniformly-warm data (Figure 1's ordering).
	if idle["mysql-tpcc"] <= idle["aerospike"] {
		t.Errorf("idle ordering wrong: mysql %.2f vs aerospike %.2f",
			idle["mysql-tpcc"], idle["aerospike"])
	}
	if idle["mysql-tpcc"] < 0.25 {
		t.Errorf("mysql idle fraction = %.2f, want large", idle["mysql-tpcc"])
	}
	o, err := render(outs)
	if err != nil || len(o) != 2 || o[0].Text == "" || o[1].Table.String() == "" {
		t.Fatalf("rendering failed: %v", err)
	}
}
