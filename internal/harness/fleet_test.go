package harness

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// TestFleetSingleTenantMatchesRunComposed is the fleet layer's differential
// anchor: one tenant holding the full DRAM pool with no churn must replay
// the solo composed run exactly — identical engine counters, identical
// RunResult, byte-identical trace and metrics exports. The arbiter runs
// every period but, with nothing to redistribute, must leave no trace. The
// cassandra row grows its footprint at App.Tick, so regions are mapped at
// boundaries mid-run.
func TestFleetSingleTenantMatchesRunComposed(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	for _, tc := range []struct {
		app, tracker, policy string
		durationNs           int64 // 0 keeps matrixScale's
	}{
		{app: "redis", tracker: "poison", policy: "threshold"},
		{app: "cassandra-write-heavy", tracker: "damon", policy: "heat", durationNs: 8e9},
	} {
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			spec, _ := workload.ByName(tc.app)
			sc := matrixScale()
			if tc.durationNs > 0 {
				sc.DurationNs = tc.durationNs
			}
			soloCol := telemetry.NewCollector()
			solo, err := Run(spec, sc, Plan{SlowdownPct: 3, Tracker: tc.tracker, Placement: tc.policy,
				Config: func(cfg *sim.Config) { cfg.Recorder = soloCol }})
			if err != nil {
				t.Fatal(err)
			}
			// The fleet runs twice: with telemetry for the export comparison,
			// and without, which guards against recorder-dependent behavior
			// creeping in.
			var outs []*fleetOutcome
			for _, tel := range []bool{false, true} {
				out, err := FleetRun(FleetOptions{
					Scale: sc,
					Tenants: []FleetTenant{{
						Name: "solo", Spec: spec, SLOPct: 3, Tracker: tc.tracker, Policy: tc.policy,
					}},
					Telemetry: tel,
				})
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, out)
			}

			for _, out := range outs {
				if got, want := out.Tenants[0].Engine.Stats(), solo.Engine.Stats(); got != want {
					t.Fatalf("fleet tenant stats diverged from solo run:\n got %+v\nwant %+v", got, want)
				}
				soloRes, fleetRes := *solo.Result, *out.Result.Global
				if want := tc.tracker + "+" + tc.policy; fleetRes.PolicyName != "fleet" || soloRes.PolicyName != want {
					t.Fatalf("unexpected policy names %q / %q", fleetRes.PolicyName, soloRes.PolicyName)
				}
				soloRes.PolicyName, fleetRes.PolicyName = "", ""
				soloRes.AppName, fleetRes.AppName = "", ""
				if !reflect.DeepEqual(soloRes, fleetRes) {
					t.Fatalf("run results diverged:\n got %+v\nwant %+v", fleetRes, soloRes)
				}
				// The arbiter must have run (one round per period) yet
				// granted the full pool to the lone tenant every time.
				if out.Result.Periods == 0 {
					t.Fatal("arbiter never ran")
				}
				for _, s := range out.Result.Series {
					if s.GrantBytes != out.Result.PoolBytes {
						t.Fatalf("period %d: lone tenant granted %d of pool %d",
							s.Epoch, s.GrantBytes, out.Result.PoolBytes)
					}
				}
			}

			var soloTrace, fleetTrace, soloMetrics, fleetMetrics bytes.Buffer
			fot := outs[1]
			if err := soloCol.WriteChromeTrace(&soloTrace); err != nil {
				t.Fatal(err)
			}
			if err := fot.Telemetry.WriteChromeTrace(&fleetTrace); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(soloTrace.Bytes(), fleetTrace.Bytes()) {
				t.Fatal("trace streams diverged between solo run and single-tenant fleet")
			}
			if err := soloCol.WriteJSONL(&soloMetrics); err != nil {
				t.Fatal(err)
			}
			if err := fot.Telemetry.WriteJSONL(&fleetMetrics); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(soloMetrics.Bytes(), fleetMetrics.Bytes()) {
				t.Fatal("metric streams diverged between solo run and single-tenant fleet")
			}
		})
	}
}

// fleetNightScale shrinks the night scenario to unit-test size.
func fleetNightScale() Scale {
	sc := Tiny()
	sc.DurationNs = 6_000_000_000
	sc.WarmupNs = 1_000_000_000
	return sc
}

// TestFleetNightScenario runs the full churn scenario at tiny scale: the
// batch tenant must depart, the canary must be admitted, every resident
// tenant must make progress, and the accounting must never oversubscribe
// the pool.
func TestFleetNightScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	res, err := runFleetNight(Options{Scale: fleetNightScale(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Outcome.Result
	byName := map[string]fleetTenantRes{}
	for _, tr := range r.Tenants {
		byName[tr.Name] = fleetTenantRes{tr.Ops, tr.DepartedNs, tr.ArrivedNs, tr.Rejected}
	}
	if tr := byName["analytics-batch"]; tr.departed == 0 {
		t.Error("analytics-batch never departed")
	}
	if tr := byName["search-canary"]; tr.rejected {
		t.Error("search-canary was rejected — pool sizing should admit it")
	} else if tr.arrived == 0 {
		t.Error("search-canary never arrived")
	}
	for _, tr := range r.Tenants {
		if !tr.Rejected && tr.Ops == 0 {
			t.Errorf("tenant %s made no progress", tr.Name)
		}
	}
	// Grants must respect the arbiter's invariants in every recorded
	// period: per-period sums within the pool, every grant at or above
	// its floor (floors are 10% of footprint estimate).
	perPeriod := map[uint64]uint64{}
	for _, s := range r.Series {
		perPeriod[s.Epoch] += s.GrantBytes
	}
	for ep, sum := range perPeriod {
		if sum > r.PoolBytes {
			t.Errorf("period %d: grants %d oversubscribe pool %d", ep, sum, r.PoolBytes)
		}
	}
	if res.SavingsPct <= 0 {
		t.Errorf("night scenario reported no DRAM saving (%.2f%%)", res.SavingsPct)
	}
	if err := telemetry.WriteTenantCSV(io.Discard, r.Series); err != nil {
		t.Fatal(err)
	}
}

// TestFleetNightSqueezedSampleSeeds is the regression for the fleet double
// demotion: at these seeds Engine.Squeeze demotes a page the poison tracker
// has mid-sample, and the estimate that sample yields two ticks later used
// to be demoted a second time ("already in the bottom (slow) tier"),
// aborting the whole fleet. The night cast must now run to completion.
func TestFleetNightSqueezedSampleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled runs")
	}
	t.Parallel()
	for _, seed := range []uint64{10, 13, 26} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := Tiny()
			sc.Seed = seed
			res, err := runFleetNight(Options{Scale: sc, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range res.Outcome.Result.Tenants {
				if !tr.Rejected && tr.Ops == 0 {
					t.Errorf("tenant %s made no progress", tr.Name)
				}
			}
		})
	}
}

type fleetTenantRes struct {
	ops      uint64
	departed int64
	arrived  int64
	rejected bool
}

// TestFleetDepartureLeavesNoResidue: after a tenant departs, none of its
// pages, TLB translations, or trap state may survive on the machine, and
// its cgroup accounting must read zero — the "departure leaks nothing"
// property, checked on the night scenario's departing batch tenant.
func TestFleetDepartureLeavesNoResidue(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := fleetNightScale()
	fo, err := FleetRun(FleetOptions{
		Scale: sc,
		Tenants: []FleetTenant{
			{Name: "stayer", Spec: workload.WebSearch(), SLOPct: 5},
			{Name: "leaver", Spec: workload.Redis(), SLOPct: 10,
				DepartNs: sc.DurationNs / 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var leaver int
	for i, tr := range fo.Result.Tenants {
		if tr.Name == "leaver" {
			leaver = i
			if tr.DepartedNs == 0 {
				t.Fatal("leaver never departed")
			}
		}
	}
	ten := fo.Tenants[leaver]
	if got := ten.Group.Usage(); got != 0 {
		t.Errorf("departed tenant still charged %d bytes", got)
	}
	m := fo.Machine
	if got := sim.ScanFootprint(m, ten.Regions()).Total(); got != 0 {
		t.Fatalf("departed tenant still maps %d bytes", got)
	}
	// No trap state (fault counts or poisoned translations) may survive in
	// the departed ranges; the stayer may legitimately hold its own.
	for _, reg := range ten.Regions() {
		for v := reg.Start; v < reg.End; v += addr.Virt(addr.PageSize4K) {
			if m.Trap().CountLeaf(v) != 0 {
				t.Errorf("departed tenant keeps trap state at %v", v)
			}
		}
	}
}

// TestFleetChaosIsolation crosses the fleet with the fault injector. With
// every MigrateCopy attempt faulting (half permanently), each tenant's
// engine must quarantine pages — but only pages inside that tenant's own
// ranges: one tenant's faults never bench another tenant's memory. And the
// rate-0 control must stay bit-identical to a run with no injector at all.
func TestFleetChaosIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := fleetNightScale()
	tenants := []FleetTenant{
		{Name: "left", Spec: workload.Redis(), SLOPct: 3},
		{Name: "right", Spec: workload.WebSearch(), SLOPct: 6},
	}
	run := func(mutate func(*sim.Config)) *fleetOutcome {
		fo, err := FleetRun(FleetOptions{
			Scale: sc, Tenants: tenants,
			Telemetry:    true,
			ConfigMutate: mutate,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fo
	}

	plain := run(nil)
	zero := run(func(cfg *sim.Config) {
		cfg.Chaos = chaos.Config{Seed: 7, Rate: 0, PermanentFraction: 1}
	})
	if !reflect.DeepEqual(plain.Result, zero.Result) {
		t.Error("rate-0 chaos config perturbed the fleet result")
	}
	var pt, zt bytes.Buffer
	if err := plain.Telemetry.WriteChromeTrace(&pt); err != nil {
		t.Fatal(err)
	}
	if err := zero.Telemetry.WriteChromeTrace(&zt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt.Bytes(), zt.Bytes()) {
		t.Error("rate-0 chaos config perturbed the fleet trace")
	}

	faulty := run(func(cfg *sim.Config) {
		cfg.Chaos = chaos.Config{
			Seed:              11,
			SiteRates:         map[chaos.Site]float64{chaos.MigrateCopy: 1},
			PermanentFraction: 0.5,
		}
	})
	var quarantined int
	for i, ten := range faulty.Tenants {
		bases := ten.Engine.QuarantinedBases()
		quarantined += len(bases)
		for _, base := range bases {
			owned := false
			for _, reg := range ten.Regions() {
				if reg.Contains(base) {
					owned = true
					break
				}
			}
			if !owned {
				t.Errorf("tenant %s quarantined foreign page %v", ten.Name, base)
			}
			for j, other := range faulty.Tenants {
				if i == j {
					continue
				}
				for _, reg := range other.Regions() {
					if reg.Contains(base) {
						t.Errorf("tenant %s quarantined page %v inside tenant %s",
							ten.Name, base, other.Name)
					}
				}
			}
		}
	}
	if quarantined == 0 {
		t.Error("no tenant quarantined any page under total migration failure")
	}
}
