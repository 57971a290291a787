package main

import (
	"encoding/json"
)

// metricDef names one reported metric. The tables below are the single
// source of the benchmark's vocabulary: BENCHMARK.json is `-print-spec`
// output (TestSpecMatchesBenchmarkJSON keeps the two equal), -diff reads its
// bounds from here, and README.md's glossary follows the same order.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// exact marks a metric that is a pure function of the seed: -diff
	// tolerates no change in it at all between two result files of one seed.
	exact bool
	// diffBound, when set, is the tighter bound -diff applies: BENCHMARK.json's
	// has to clear the spread of ten runs of ten different seeds, -diff
	// compares two files of one host taken with the same settings.
	diffBound float64
}

// runSeconds is BENCHMARK.json's run_seconds: the budget of one run's
// measurement loop.
const runSeconds = 20

// endToEnd are the metrics a user of the simulator sees. Bounds are the
// share of the parent's median by which a metric may worsen. The host-side
// three are noise-limited; the virtual-side three are exact for a seed, and
// their bounds only have to clear the spread between seeds.
var endToEnd = []metricDef{
	{Name: "host_cost_per_op", Unit: "iter/op", Better: "lower", Bound: 0.25, diffBound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "state_mb", Unit: "MB", Better: "lower", Bound: 0.25, exact: true},
	{Name: "virt_throughput_kops", Unit: "kop/s", Better: "higher", Bound: 0.015, exact: true},
	{Name: "fast_mem_pct", Unit: "%", Better: "lower", Bound: 0.25, exact: true},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer are the single-layer metrics of the traced run and the component
// replays, named <module>.<metric>. Times are raw (ns/us/ms, to be read next
// to calib.ns_per_iter); shares and counts are the comparable part. Counts
// carry "lower" where fewer means less simulated work for the same result.
var perLayer = []metricDef{
	lower("trace.overhead_pct", "%"),

	lower("sim.machine_share_pct", "%"),
	lower("sim.access_ns", "ns"),
	higher("sim.ops", "count"),
	lower("sim.tlb_miss_pct", "%"),
	lower("sim.llc_miss_pct", "%"),
	lower("sim.poison_faults", "count"),
	lower("sim.slow_accesses", "count"),
	lower("sim.slowdown_pct", "%"),
	lower("sim.slowdown_over_target_pct", "%"),
	higher("sim.cold_frac_pct", "%"),

	lower("workload.next_share_pct", "%"),
	lower("workload.next_ns", "ns"),
	lower("workload.init_ms", "ms"),
	lower("workload.tick_ms", "ms"),
	lower("rng.zipf_ns", "ns"),

	lower("core.tick_share_pct", "%"),
	lower("core.tick_ms_p50", "ms"),
	lower("core.tick_ms_max", "ms"),
	lower("core.tracker_estimates_ms", "ms"),
	lower("core.tracker_arm_ms", "ms"),
	lower("core.tracker_measure_ms", "ms"),
	lower("core.policy_correct_ms", "ms"),
	lower("core.policy_place_ms", "ms"),
	lower("core.footprint_ms", "ms"),
	lower("core.state_kb", "KB"),
	higher("core.sampled", "count"),
	higher("core.demotions", "count"),
	lower("core.promotions", "count"),
	lower("core.retries", "count"),
	lower("core.quarantined", "count"),

	lower("tlb.lookup_ns", "ns"),
	lower("tlb.insert_ns", "ns"),
	higher("tlb.hit_l1_pct", "%"),
	higher("tlb.hit_l2_pct", "%"),

	lower("pagetable.walk_ns", "ns"),
	lower("pagetable.scan_ns_per_region", "ns"),
	lower("pagetable.split_collapse_us", "us"),
	lower("pagetable.regions", "count"),
	lower("pagetable.state_kb", "KB"),
	lower("walk.latency_ns", "ns"),

	lower("cache.access_ns", "ns"),
	lower("cache.miss_pct", "%"),
	lower("mem.alloc_free_ns", "ns"),
	lower("mem.state_kb", "KB"),

	lower("badgertrap.handle_ns", "ns"),
	lower("badgertrap.poison_unpoison_ns", "ns"),
	lower("badgertrap.state_kb", "KB"),
	lower("kstaled.scan_ns_per_region", "ns"),

	lower("numa.move_huge_us", "us"),
	lower("numa.move_4k_us", "us"),
	lower("numa.migration_mbps", "MB/s"),
	lower("numa.moved_mb", "MB"),
	lower("numa.moves_2m", "count"),
	lower("numa.moves_4k", "count"),
	lower("numa.rollbacks", "count"),

	lower("telemetry.record_share_pct", "%"),
	lower("telemetry.events", "count"),
	lower("telemetry.dropped", "count"),
	lower("telemetry.event_ns", "ns"),
	lower("telemetry.snapshot_us", "us"),
	lower("telemetry.export_trace_ms", "ms"),
	lower("telemetry.export_jsonl_ms", "ms"),

	lower("obsv.encode_us", "us"),
	lower("obsv.parse_us", "us"),
	higher("obsv.families", "count"),

	lower("daemon.config_decode_us", "us"),
	lower("daemon.checkpoint_write_ms", "ms"),
	lower("daemon.checkpoint_read_ms", "ms"),
	lower("daemon.full_run_cost_per_op", "iter/op"),
	lower("daemon.restore_replay_cost_per_op", "iter/op"),
	lower("daemon.restore_replay_frac", "1"),
	lower("daemon.export_flush_ms", "ms"),

	lower("fleet.arbitrate4_us", "us"),
	lower("fleet.arbitrate64_us", "us"),
	higher("fleet.periods", "count"),
	lower("fleet.rejected", "count"),
	lower("cgroup.charge_ns", "ns"),

	lower("calib.ns_per_iter", "ns"),
	lower("calib.spread_pct", "%"),
	lower("host.raw_ns_per_op_min", "ns"),
	lower("host.raw_ns_per_op_p50", "ns"),
	lower("host.setup_raw_us", "us"),
	lower("host.alloc_kb_per_mop", "KB/Mop"),
}

// benchmarkSpec renders BENCHMARK.json.
func benchmarkSpec() []byte {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// metricDef marshals as the driver wants it: bound only where there is one
	// (every end-to-end metric), unexported fields not at all.
	spec := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, s := range scenarios() {
		spec.Workloads = append(spec.Workloads, workloadDef{s.name, s.why})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers cannot fail to marshal
	}
	return append(b, '\n')
}
