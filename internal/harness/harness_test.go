package harness

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"thermostat/internal/stats"
	"thermostat/internal/workload"
)

func TestScaleValidate(t *testing.T) {
	t.Parallel()
	for _, sc := range []Scale{repro(), Bench(), Tiny()} {
		if err := sc.validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
	bad := repro()
	bad.Div = 0
	if err := bad.validate(); err == nil {
		t.Error("zero Div accepted")
	}
	bad = repro()
	bad.WarmupNs = bad.DurationNs
	if err := bad.validate(); err == nil {
		t.Error("warmup >= duration accepted")
	}
}

func TestScaleConversions(t *testing.T) {
	t.Parallel()
	sc := repro() // F=4, period 2s
	if got := sc.paperRate(7500); got != 30000 {
		t.Fatalf("PaperRate = %v", got)
	}
	if got := sc.periodCompression(); got != 15 {
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

// paired is the experiments that read the baseline/Thermostat pairs.
var paired = []string{"table2", "fig3", "colddata", "table3", "table4"}

// TestRunAllTinyTwoApps runs every experiment that reads the pairs, for
// two apps at tiny scale, and checks their tables.
func TestRunAllTinyTwoApps(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	opt := Options{
		Scale: Tiny(),
		Apps:  []workload.Spec{workload.MySQLTPCC(), workload.WebSearch()},
	}
	outs := outputs(t, opt, paired...)
	cell := func(s string) float64 {
		t.Helper()
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, app := range []string{"mysql-tpcc", "web-search"} {
		tbl := outs["colddata-"+app].Table
		var slowdown, cold float64
		caption := tbl.Title[strings.Index(tbl.Title, "("):]
		if _, err := fmt.Sscanf(caption, "(slowdown %f%%, mean cold fraction %f%%)", &slowdown, &cold); err != nil {
			t.Fatalf("%s: caption %q: %v", app, caption, err)
		}
		// Thermostat must find cold data in both (each has a large idle
		// region) without blowing the budget. The tiny 8s schedule only
		// covers the start of the discovery ramp, so the bar is low; the
		// repro-scale runs in EXPERIMENTS.md measure the real fractions.
		if cold < 5 {
			t.Errorf("%s: cold fraction %.0f%% too low", app, cold)
		}
		if slowdown > 10 {
			t.Errorf("%s: slowdown %.1f%% too high", app, slowdown)
		}
		if len(tbl.Rows) == 0 || tbl.Header[1] != "2MB_cold_GB" {
			t.Errorf("%s: cold series missing from table:\n%s", app, tbl)
		}
	}

	t3 := outs["table3"].Table
	if len(t3.Rows) != 2 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}
	for _, row := range t3.Rows {
		// Demotions happened, at a plausible rate.
		if mbps := cell(row[1]); mbps <= 0 || mbps > 1000 {
			t.Errorf("%s migration rate %v implausible", row[0], mbps)
		}
	}
	for _, row := range outs["table4"].Table.Rows {
		if cell(row[3]) < cell(row[1]) {
			t.Errorf("%s: savings must grow as slow memory gets cheaper", row[0])
		}
	}
	for _, row := range outs["table2"].Table.Rows {
		if cell(row[1]) <= 0 {
			t.Errorf("%s: zero RSS", row[0])
		}
	}
	f3 := outs["fig3"].Table
	if len(f3.Header) != 3 || !strings.Contains(f3.Title, "target 30000/s") {
		t.Fatalf("Fig3 header %v, title %q", f3.Header, f3.Title)
	}
	for j, name := range f3.Header[1:] {
		// The controller keeps the post-warmup rate within a small
		// multiple of target.
		var sum float64
		var n int
		for _, row := range f3.Rows {
			if cell(row[0])*1e9 >= float64(opt.Scale.WarmupNs) {
				sum += cell(row[j+1])
				n++
			}
		}
		if n == 0 || sum/float64(n) > 4*30000 {
			t.Errorf("%s: slow rate %v over %d windows far above target", name, sum/float64(n), n)
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
	outs, err := runRows(0, rows)
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
	outs, err := runRows(0, rows)
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
	outs, err := runRows(0, rows)
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
