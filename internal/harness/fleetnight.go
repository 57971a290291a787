package harness

import (
	"bytes"
	"fmt"
	"strings"

	"thermostat/internal/report"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// FleetNightTenants is the "datacenter night" cast: two latency-critical
// services resident all night, an overnight analytics batch that finishes
// and departs, and a search service that scales up mid-run — mixed SLOs,
// priorities, and interleave shares, with churn on both edges. Times are
// fractions of the run: the batch departs at 75%, the search arrives at 40%.
func FleetNightTenants(sc Scale) []FleetTenant {
	d := sc.DurationNs
	return []FleetTenant{
		{Name: "redis-cache", Spec: workload.Redis(), SLOPct: 3, Priority: 2, Share: 2},
		{Name: "mysql-oltp", Spec: workload.MySQLTPCC(), SLOPct: 5, Priority: 2, Share: 1},
		{Name: "analytics-batch", Spec: workload.InMemAnalytics(), SLOPct: 15,
			DepartNs: d * 3 / 4},
		{Name: "search-canary", Spec: workload.WebSearch(), SLOPct: 10,
			ArriveNs: d * 2 / 5},
	}
}

// fleetNightResult is the night scenario's full report bundle.
type fleetNightResult struct {
	Outcome *fleetOutcome
	// SavingsPct prices the final machine-wide placement against all-DRAM.
	SavingsPct float64
	// Table is the per-tenant summary; Text the full rendered report.
	Table *report.Table
	Text  string
}

// runFleetNight runs the seeded datacenter-night scenario: the FleetNightTenants
// cast on one machine whose DRAM pool is sized to the initial population
// (plus 8% headroom) with per-tenant floors at 10% of footprint, so the
// mid-run arrival has to be carved out of incumbents' cold memory by the
// arbiter. Fully deterministic from opt.Scale.Seed.
func runFleetNight(opt Options) (*fleetNightResult, error) {
	opt = opt.withDefaults()
	sc := opt.Scale
	tens := FleetNightTenants(sc)
	var pool uint64
	for i := range tens {
		est := tens[i].scaledFootprint(sc)
		tens[i].FloorBytes = est / 10
		if tens[i].ArriveNs == 0 {
			pool += est
		}
	}
	pool += pool / 12 // ~8% headroom over the initial population

	fo, err := FleetRun(FleetOptions{
		Scale: sc, Tenants: tens, FastBytes: pool,
		Workers: opt.Workers, Baselines: true,
		Publisher: opt.Publisher,
	})
	if err != nil {
		return nil, err
	}
	res := &fleetNightResult{Outcome: fo}
	if sv, err := FleetSavings(fo); err == nil {
		res.SavingsPct = 100 * sv
	}

	tbl := report.NewTable("Fleet night: per-tenant slowdown vs SLO",
		"tenant", "pri", "share", "slo%", "est_slow%", "sl_ok",
		"arrive_s", "depart_s", "ops", "tput/s", "grant_mb", "fast_mb", "foot_mb")
	for _, t := range fo.Result.Tenants {
		dep := "-"
		if t.DepartedNs > 0 {
			dep = fmt.Sprintf("%.0f", float64(t.DepartedNs)/1e9)
		}
		tbl.AddF(t.Name, t.Priority, t.Share,
			fmt.Sprintf("%.1f", t.SLOPct),
			fmt.Sprintf("%.2f", t.MeanSlowdownPct),
			t.SLOStatus(),
			fmt.Sprintf("%.0f", float64(t.ArrivedNs)/1e9), dep,
			t.Ops, fmt.Sprintf("%.0f", t.Throughput),
			fmt.Sprintf("%.0f", float64(t.GrantBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(t.FastBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(t.FootprintBytes)/(1<<20)))
	}
	res.Table = tbl

	var b strings.Builder
	fmt.Fprintf(&b, "Datacenter night — one hierarchy, %d tenants, per-tenant SLOs\n", len(tens))
	fmt.Fprintf(&b, "scale %s  seed %d  pool %.0f MB  arbiter period %.1fs  %d periods\n\n",
		sc.Name, sc.Seed, float64(fo.Result.PoolBytes)/(1<<20),
		float64(sc.PeriodNs)/1e9, fo.Result.Periods)
	b.WriteString(tbl.String())
	fp := fo.Result.Global.FinalFootprint
	fmt.Fprintf(&b, "\nfinal fleet placement: %.0f MB hot / %.0f MB cold (%.1f%% cold)\n",
		float64(fp.Hot2M+fp.Hot4K)/(1<<20), float64(fp.Cold())/(1<<20),
		100*fp.ColdFraction())
	fmt.Fprintf(&b, "fleet-wide DRAM cost saving vs all-DRAM provisioning: %.1f%%\n", res.SavingsPct)
	res.Text = b.String()
	return res, nil
}

// fleetNight is the night as a repro entry: the report, and the committed
// fleet_night.{txt,csv} pair.
func fleetNight(opt Options) ([]Output, error) {
	res, err := runFleetNight(opt)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := telemetry.WriteTenantCSV(&csv, res.Outcome.Result.Series); err != nil {
		return nil, err
	}
	return []Output{
		{Name: "fleet_night", Text: res.Text, Table: res.Table},
		{Name: "fleet_night.txt", File: []byte(res.Text)},
		{Name: "fleet_night.csv", File: csv.Bytes()},
	}, nil
}
