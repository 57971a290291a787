package main

import (
	"fmt"
	"path/filepath"
	"time"

	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
)

// minReference is how many untraced repeats a --trace 1 run makes on its
// own to have a cost to compare the traced run against.
const minReference = 3

// traced makes the traced run of the scenario and fills w.PerLayer. ref is
// the untraced summary of the same process when there is one; otherwise a
// short reference is measured first.
func (r *runner) traced(w *workloadResult, ref *summary, budget time.Duration, fixed int) error {
	if ref == nil {
		var err error
		if ref, err = r.untraced(w, budget/2, minReference, fixed); err != nil {
			return err
		}
		r.verifyLast(w, ref)
	}

	tr := newTracer()
	s, err := r.repeat(tr)
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	w.OpsAttempted += s.out.ops
	w.TracedDigest = s.out.parts[0]
	if want := ref.first.parts[0]; w.TracedDigest != want {
		w.fail(s.out.ops, "traced run: sim_digest %s differs from the untraced %s", w.TracedDigest, want)
	}
	for _, f := range s.out.failures {
		w.fail(s.out.ops, "traced run: %s", f)
	}
	for i, m := range s.out.machines {
		w.check(fmt.Sprintf("Machine.Verify (traced machine %d)", i), m.Verify())
	}

	pl := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		pl[d.Name] = 0
	}
	w.PerLayer = pl
	spanMetrics(pl, tr, s)
	hostMetrics(pl, ref, s)
	if err := r.runMetrics(pl, ref, s.out); err != nil {
		return err
	}
	// The replays mutate the finished machine, so they come after everything
	// that reads the run's own counters.
	w.check("component replays", replayMachine(pl, s.out.machines[0], s.cap.reqs))
	w.check("stand-alone replays", replayStandalone(pl, r.seed, filepath.Join(r.outDir, fmt.Sprintf("tmp-replay-%s", r.sc.name))))
	return tr.write(filepath.Join(r.outDir, "trace-"+r.sc.name+".json"), r.sc.name)
}

// spanMetrics derives the host-time attribution from the traced run's spans.
// The "run" span is the timed call; its self time is whatever no decorator
// saw: the machine access path plus the runner loop.
func spanMetrics(pl map[string]float64, tr *tracer, s *repeatSample) {
	root := int32(-1)
	for i, sp := range tr.spans {
		if sp.Name == "run" {
			root = int32(i)
		}
	}
	total := float64(tr.spans[root].Busy)
	ops := float64(s.out.ops)
	ms := func(name string) float64 { ns, _ := tr.busy(root, name); return float64(ns) / 1e6 }
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			b, _ := tr.busy(root, n)
			ns += b
		}
		return 100 * float64(ns) / total
	}

	self := float64(tr.selfTimes()[root])
	pl["sim.machine_share_pct"] = 100 * self / total
	pl["sim.access_ns"] = self / ops

	pl["workload.next_share_pct"] = share("workload.Next", "workload.NextBatch")
	pl["workload.next_ns"] = pl["workload.next_share_pct"] / 100 * total / ops
	initNs, _ := tr.busy(-1, "workload.Init")
	pl["workload.init_ms"] = float64(initNs) / 1e6
	pl["workload.tick_ms"] = ms("workload.Tick")

	pl["core.tick_share_pct"] = share("core.Tick")
	ticks := tr.durations(root, "core.Tick")
	pl["core.tick_ms_p50"] = median(ticks) / 1e6
	pl["core.tick_ms_max"] = quantile(ticks, 1) / 1e6
	pl["core.tracker_estimates_ms"] = ms("tracker.Estimates")
	pl["core.tracker_arm_ms"] = ms("tracker.Arm")
	pl["core.tracker_measure_ms"] = ms("tracker.MeasureCold")
	pl["core.policy_correct_ms"] = ms("policy.Correct")
	pl["core.policy_place_ms"] = ms("policy.Place")
	pl["core.footprint_ms"] = ms("policy.Footprint")

	pl["telemetry.record_share_pct"] = share("telemetry.Event", "telemetry.Snapshot")
}

// hostMetrics reports the raw host numbers behind the calibrated ones: never
// gated, they are the evidence of a disturbed host.
func hostMetrics(pl map[string]float64, ref *summary, traced *repeatSample) {
	var bursts, raw, allocs, setups []float64
	for _, s := range ref.samples {
		bursts = append(bursts, s.bursts...)
		raw = append(raw, float64(s.wallNs)/float64(s.out.ops))
		allocs = append(allocs, s.allocKB/(float64(s.out.ops)/1e6))
		setups = append(setups, s.setupS...)
	}
	pl["host.alloc_kb_per_mop"] = median(allocs)
	pl["host.setup_raw_us"] = median(setups) * 1e6
	pl["calib.ns_per_iter"] = median(bursts)
	pl["calib.spread_pct"] = 100 * (quantile(bursts, 0.75)/quantile(bursts, 0.25) - 1)
	pl["host.raw_ns_per_op_min"] = quantile(raw, 0)
	pl["host.raw_ns_per_op_p50"] = median(raw)

	// daemon-restore's traced run is phase "full" alone; everywhere else the
	// traced run is the whole timed call.
	base := median(ref.costs())
	if full := phaseCosts(ref, "full"); len(full) > 0 {
		base = median(full)
	}
	pl["trace.overhead_pct"] = 100 * (traced.cost()/base - 1)
}

func phaseCosts(sum *summary, name string) []float64 {
	var v []float64
	for _, s := range sum.samples {
		if c := s.phaseCost(name); c > 0 {
			v = append(v, c)
		}
	}
	return v
}

// runMetrics reports the traced run's own counters (which must repeat
// exactly) and the scenario-specific results of the untraced repeats.
func (r *runner) runMetrics(pl map[string]float64, ref *summary, out *outcome) error {
	res := out.result
	mt := res.Metrics
	pl["sim.ops"] = float64(res.Ops)
	pl["sim.tlb_miss_pct"] = 100 * mt.TLB.MissRate()
	pl["sim.llc_miss_pct"] = 100 * mt.LLC.MissRate()
	pl["sim.poison_faults"] = float64(mt.PoisonFaults)
	pl["sim.slow_accesses"] = float64(mt.SlowAccesses)
	pl["sim.cold_frac_pct"] = 100 * res.MeanColdFraction(out.warmupNs)
	if lookups := float64(mt.TLB.Lookups()); lookups > 0 {
		pl["tlb.hit_l1_pct"] = 100 * float64(mt.TLB.HitsL1) / lookups
		pl["tlb.hit_l2_pct"] = 100 * float64(mt.TLB.HitsL2) / lookups
	}
	pl["cache.miss_pct"] = pl["sim.llc_miss_pct"]

	switch {
	case out.fleetRes != nil:
		// Tenants have no solo baseline here; the arbiter's own signal is
		// each engine's slowdown estimate against its SLO.
		worst, over := 0.0, 0.0
		for _, t := range out.fleetRes.Tenants {
			worst = max(worst, t.MeanSlowdownPct)
			over = max(over, t.MeanSlowdownPct-t.SLOPct)
			if t.Rejected {
				pl["fleet.rejected"]++
			}
		}
		pl["sim.slowdown_pct"], pl["sim.slowdown_over_target_pct"] = worst, over
		pl["fleet.periods"] = float64(out.fleetRes.Periods)
	case r.sc.baseline != nil:
		base, err := r.sc.baseline(env{seed: r.effectiveSeed(), short: r.short})
		if err != nil {
			return fmt.Errorf("all-DRAM baseline: %w", err)
		}
		slow := 100 * sim.Slowdown(base, res)
		pl["sim.slowdown_pct"] = slow
		pl["sim.slowdown_over_target_pct"] = max(0, slow-r.sc.sloPct)
	}

	var st core.Stats
	for _, e := range out.engines {
		es := e.Stats()
		st.Sampled += es.Sampled
		st.Demotions += es.Demotions
		st.Promotions += es.Promotions
		st.Retries += es.Retries
		st.Quarantined += es.Quarantined
	}
	pl["core.sampled"] = float64(st.Sampled)
	pl["core.demotions"] = float64(st.Demotions)
	pl["core.promotions"] = float64(st.Promotions)
	pl["core.retries"] = float64(st.Retries)
	pl["core.quarantined"] = float64(st.Quarantined)
	pl["core.state_kb"] = float64(out.coreState) / 1024

	m := out.machines[0]
	meter := m.Meter()
	pl["numa.migration_mbps"] = float64(mt.MigrationBytes) / 1e6 / (float64(res.DurationNs) / 1e9)
	pl["numa.moved_mb"] = float64(mt.MigrationBytes) / 1e6
	pl["numa.moves_2m"] = float64(meter.Pages2M(mem.Demotion) + meter.Pages2M(mem.Promotion))
	pl["numa.moves_4k"] = float64(meter.Pages4K(mem.Demotion) + meter.Pages4K(mem.Promotion))
	pl["numa.rollbacks"] = float64(m.Migrator().Rollbacks())
	pl["pagetable.regions"] = float64(m.PageTable().RegionCount())
	pl["pagetable.state_kb"] = float64(m.PageTable().StateBytes()) / 1024
	pl["mem.state_kb"] = float64(m.Memory().StateBytes()) / 1024
	pl["badgertrap.state_kb"] = float64(m.Trap().StateBytes()) / 1024

	if col := out.collector; col != nil {
		pl["telemetry.events"] = float64(col.EventCount())
		pl["telemetry.dropped"] = float64(col.Dropped())
	}
	if full := phaseCosts(ref, "full"); len(full) > 0 {
		pl["daemon.full_run_cost_per_op"] = median(full)
		pl["daemon.restore_replay_cost_per_op"] = median(phaseCosts(ref, "restore"))
		pl["daemon.restore_replay_frac"] = ref.first.restoreReplayFrac
		ms, err := exportFlush(ref.first.collector, filepath.Join(r.outDir, "tmp-flush-"+r.sc.name))
		if err != nil {
			return err
		}
		pl["daemon.export_flush_ms"] = ms
	}
	return nil
}
