package harness

import (
	"strings"
	"testing"

	"thermostat/internal/workload"
)

func TestRunNTierThreeTierEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := Tiny()
	out, err := Run(workload.Redis(), sc, Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)})
	if err != nil {
		t.Fatal(err)
	}
	if out.Machine.Memory().NumTiers() != 3 {
		t.Fatalf("NumTiers = %d", out.Machine.Memory().NumTiers())
	}
	if err := out.Machine.Verify(); err != nil {
		t.Fatal(err)
	}
	st := out.Engine.Stats()
	if st.Periods == 0 || st.Sampled == 0 {
		t.Fatalf("engine never ran: %+v", st)
	}
	if st.Demotions == 0 {
		t.Fatal("no demotions on a three-tier machine")
	}

	rep, err := AnalyzeNTier(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tiers) != 3 {
		t.Fatalf("report has %d tiers", len(rep.Tiers))
	}
	var frac float64
	for _, u := range rep.Tiers {
		frac += u.Fraction
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("tier fractions sum to %v", frac)
	}
	// Cold data left DRAM, so the placement must be cheaper than all-DRAM.
	if rep.Tiers[0].Fraction >= 1 {
		t.Fatal("nothing ever left the top tier")
	}
	if rep.Savings <= 0 || rep.Savings >= 1 {
		t.Fatalf("savings = %v", rep.Savings)
	}
	// Demotions out of DRAM show up in the pair matrix as (0 -> 1) traffic.
	if len(rep.Pairs) == 0 {
		t.Fatal("no pair traffic recorded")
	}
	found01 := false
	for _, p := range rep.Pairs {
		if int(p.Src) >= 3 || int(p.Dst) >= 3 {
			t.Fatalf("pair %v names an unconfigured tier", p)
		}
		if p.Src == 0 && p.Dst == 1 {
			found01 = true
			if p.Bytes == 0 || p.Pages2M == 0 {
				t.Fatalf("(0,1) traffic empty: %+v", p)
			}
			if p.PaperMBps <= 0 {
				t.Fatalf("(0,1) paper rate = %v", p.PaperMBps)
			}
		}
	}
	if !found01 {
		t.Fatalf("no DRAM->CXL demotion traffic in %+v", rep.Pairs)
	}

	traffic := rep.TrafficTable().String()
	if !strings.Contains(traffic, "fast") || !strings.Contains(traffic, "cxl") {
		t.Errorf("traffic table missing tier names:\n%s", traffic)
	}
	cost := rep.CostTable().String()
	if !strings.Contains(cost, "nvm") || !strings.Contains(cost, "savings vs all-DRAM") {
		t.Errorf("cost table missing content:\n%s", cost)
	}
}

func TestTieredMachineConfigDilation(t *testing.T) {
	t.Parallel()
	sc := Tiny()
	cfg := sc.TieredMachineConfig(workload.Redis(), DefaultThreeTier(0))
	if len(cfg.Tiers) != 3 {
		t.Fatalf("Tiers = %d", len(cfg.Tiers))
	}
	// Top tier keeps native DRAM latency; lower tiers are time-dilated like
	// the two-tier slow tier.
	if cfg.Tiers[0].ReadLatency != 80 {
		t.Errorf("tier 0 latency = %d", cfg.Tiers[0].ReadLatency)
	}
	if cfg.Tiers[1].ReadLatency != 250*sc.TimeDilate {
		t.Errorf("tier 1 latency = %d, want %d", cfg.Tiers[1].ReadLatency, 250*sc.TimeDilate)
	}
	if cfg.Tiers[2].ReadLatency != 1000*sc.TimeDilate {
		t.Errorf("tier 2 latency = %d, want %d", cfg.Tiers[2].ReadLatency, 1000*sc.TimeDilate)
	}
	// Top tier gets hot-set headroom over the lower tiers.
	if cfg.Tiers[0].Capacity <= cfg.Tiers[1].Capacity {
		t.Errorf("top capacity %d not above lower %d", cfg.Tiers[0].Capacity, cfg.Tiers[1].Capacity)
	}
	if cfg.Mode.String() != "device" {
		t.Errorf("mode = %v, want device", cfg.Mode)
	}
	if _, err := Run(workload.Redis(), sc, Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)[:1]}); err == nil {
		t.Error("single-tier hierarchy accepted")
	}
}

// TestTierNamesFollowTheMachine is the regression for the process-wide tier
// name table: a dram,cxl,nvm machine and a two-tier machine built in the
// same process — in either order — must each render their own tier names.
// The registry used to let whichever hierarchy was built last rename the
// other's tiers ("slow" printed for "cxl").
func TestTierNamesFollowTheMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled runs")
	}
	t.Parallel()
	sc := Tiny()
	tiers, err := ResolveTiers([]string{"dram", "cxl", "nvm"})
	if err != nil {
		t.Fatal(err)
	}
	render := func(plan Plan) string {
		out, err := Run(workload.Redis(), sc, plan)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := AnalyzeNTier(out)
		if err != nil {
			t.Fatal(err)
		}
		return rep.TrafficTable().String() + "\n" + rep.CostTable().String()
	}
	three, two := Plan{SlowdownPct: 3, Tiers: tiers}, Plan{SlowdownPct: 3}
	for _, order := range [][]Plan{{three, two}, {two, three}} {
		for _, plan := range order {
			got := render(plan)
			want, foreign := []string{"fast", "slow"}, []string{"cxl", "nvm"}
			if plan.Tiers != nil {
				want, foreign = []string{"fast", "cxl", "nvm"}, []string{"slow"}
			}
			for _, name := range want {
				if !strings.Contains(got, name) {
					t.Errorf("%d-tier report missing %q:\n%s", len(want), name, got)
				}
			}
			for _, name := range foreign {
				if strings.Contains(got, name) {
					t.Errorf("%d-tier report shows another machine's tier %q:\n%s", len(want), name, got)
				}
			}
		}
	}
}
