package harness

import (
	"fmt"
	"strings"

	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/pricing"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// matrix is the tracker × policy head-to-head the paper never ran: a row
// per app (redis and mysql-tpcc unless -apps says otherwise) and topology —
// the paper's two tiers, then DRAM/CXL/NVM — with that topology's
// all-top-tier baseline, and an arm per composition. Each cell is scored on
// what matters for "which policy when": how much the application slowed
// down, how much memory cost the placement saved, and how accurately it
// classified pages against the simulator's LLC ground truth (which no real
// system can observe) — hence ground-truth page counting and a collector.
func matrix(opt Options) ([]row, render) {
	topologies := []struct {
		name  string
		tiers []mem.Spec
	}{{"2tier", nil}, {"3tier", DefaultThreeTier(0)}}
	var rows []row
	var topos []string
	for _, spec := range opt.apps(workload.Redis(), workload.MySQLTPCC()) {
		for _, topo := range topologies {
			r := row{spec: spec, sc: opt.Scale, arms: []arm{{name: "baseline", plan: Plan{Tiers: topo.tiers}}}}
			for _, tracker := range core.TrackerNames() {
				for _, policy := range core.PolicyNames() {
					r.arms = append(r.arms, arm{name: tracker + "+" + policy, plan: Plan{
						SlowdownPct: opt.SlowdownPct, Tracker: tracker, Placement: policy, Tiers: topo.tiers,
						Config:  func(cfg *sim.Config) { cfg.Recorder = telemetry.NewCollector() },
						Machine: (*sim.Machine).EnablePageCounts,
					}})
				}
			}
			rows = append(rows, r)
			topos = append(topos, topo.name)
		}
	}
	return rows, func(outs [][]*Outcome) ([]Output, error) {
		t := report.NewTable(
			fmt.Sprintf("Policy matrix (%s scale): slowdown vs. savings vs. accuracy", opt.Scale.Name),
			"app", "topology", "tracker", "policy",
			"slowdown%", "coldfrac%", "savings%", "accuracy%",
			"demote", "promote", "sink", "quarantine")
		for i, r := range rows {
			for j, a := range r.arms[1:] {
				out := outs[i][j+1]
				tracker, policy, _ := strings.Cut(a.name, "+")
				acc := "n/a"
				if v, ok := confusionAccuracy(out.Telemetry, r.sc.WarmupNs); ok {
					acc = fmt.Sprintf("%.1f", v*100)
				}
				var savings float64
				if sv, err := placementSavings(out.Machine.Memory(), out.Result.FinalFootprint); err == nil {
					savings = sv
				}
				st := out.Engine.Stats()
				t.AddF(r.spec.Name, topos[i], tracker, policy,
					fmt.Sprintf("%.2f", 100*sim.Slowdown(outs[i][0].Result, out.Result)),
					fmt.Sprintf("%.1f", out.Result.MeanColdFraction(r.sc.WarmupNs)*100),
					fmt.Sprintf("%.1f", savings*100), acc,
					st.Demotions, st.Promotions, st.Sinks, st.Quarantined)
			}
		}
		return []Output{{Name: "policy_matrix", Table: t}}, nil
	}
}

// confusionAccuracy folds the post-warmup confusion-matrix epochs into one
// accuracy number: correctly-idle cold pages plus correctly-accessed hot
// pages over everything classified.
func confusionAccuracy(col *telemetry.Collector, warmupNs int64) (float64, bool) {
	var right, total uint64
	for _, s := range col.Snapshots() {
		if !s.ConfusionValid || s.StartNs < warmupNs {
			continue
		}
		right += s.ColdIdle + s.HotAccessed
		total += s.ColdIdle + s.HotAccessed + s.ColdAccessed + s.HotIdle
	}
	if total == 0 {
		return 0, false
	}
	return float64(right) / float64(total), true
}

// placementSavings prices a final placement on sys against an all-top-tier
// system of the same footprint, using each tier's cost model.
func placementSavings(sys *mem.System, fp sim.Footprint) (float64, error) {
	if fp.ByTier == nil || fp.Total() == 0 {
		return 0, fmt.Errorf("harness: placement has no per-tier footprint")
	}
	topCost := sys.Tier(mem.Fast).Spec().CostPerGB
	if topCost <= 0 {
		return 0, fmt.Errorf("harness: top tier has no cost")
	}
	var shares []pricing.TierShare
	for i := 0; i < sys.NumTiers(); i++ {
		t := sys.Tier(mem.TierID(i))
		shares = append(shares, pricing.TierShare{
			Name:      t.Name(),
			Fraction:  float64(fp.ByTier[i].Total()) / float64(fp.Total()),
			CostRatio: t.Spec().CostPerGB / topCost,
		})
	}
	return pricing.SavingsTiered(shares)
}
