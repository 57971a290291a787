// Benchmarks of the simulator itself: the access path, one access at a time
// and in blocks, and whole seeded runs, solo and fleet, bare and with
// telemetry. The paper's tables and figures have their benchmarks beside
// the experiments, in internal/harness.
package thermostat

import (
	"io"
	"testing"

	"thermostat/internal/harness"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// BenchmarkAccessPath measures the simulator's raw access throughput (the
// cost of one simulated memory access through TLB, walk, cache, and tiers).
func BenchmarkAccessPath(b *testing.B) {
	m, err := NewMachine(DefaultMachineConfig(64<<20, 64<<20))
	if err != nil {
		b.Fatal(err)
	}
	app, err := NewWorkload(Redis(), 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, w := app.Next()
		if _, err := m.Access(v, w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessBlock measures the access path as runs issue it, on the
// same machine and workload as BenchmarkAccessPath: a one-member
// Scheduler's blocks, each one NextBatch, one translation pass and one
// charge loop of up to sim.MaxBlockOps accesses; for all but the first,
// the draw runs on the Scheduler's producer and the translation on its
// translator, so the simulation goroutine only charges. The per-op delta
// between the two is what blocks amortize (VPID fetch, compute-step
// divide, per-op call dispatch) and what drawing and translating ahead
// take off the simulation goroutine.
// The last block may overshoot b.N, so ns/op is over the accesses issued.
func BenchmarkAccessBlock(b *testing.B) {
	m, err := NewMachine(DefaultMachineConfig(64<<20, 64<<20))
	if err != nil {
		b.Fatal(err)
	}
	app, err := NewWorkload(Redis(), 1024, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		b.Fatal(err)
	}
	// No window, tick or end falls inside the benchmark.
	const never = 1 << 60
	pol := NullPolicy{Interval: never}
	s := sim.NewScheduler(m, RunConfig{DurationNs: never, WindowNs: never}, app.Name(), pol.Name(), pol.Footprint)
	defer s.Stop()
	s.Add(app.Name(), app, pol, 1)
	s.Join(0)
	b.ResetTimer()
	for s.Ops(0) < uint64(b.N) {
		if err := s.Block(never); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(s.Ops(0)), "ns/op")
}

// benchRun times one seeded Thermostat run of spec at sc per iteration.
func benchRun(b *testing.B, spec workload.Spec, sc harness.Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := harness.Run(spec, sc, harness.Plan{SlowdownPct: 3})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Result.Ops), "sim_ops")
		}
	}
}

// BenchmarkRunRedis measures the end-to-end wall-clock of one seeded
// Thermostat run (redis at tiny scale): workload generation, the access
// path, policy scans and migrations together. This is the single-run
// latency every experiment in the harness pays per grid cell.
func BenchmarkRunRedis(b *testing.B) {
	sc := harness.Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	benchRun(b, workload.Redis(), sc)
}

// BenchmarkRunRedisRecorded is BenchmarkRunRedis with telemetry on, as the
// daemon runs: a Collector records every event and epoch snapshot, and
// each iteration ends by writing both exports. The run still draws blocks
// ahead, since the access path stages its events for the Scheduler to hand
// over between blocks.
func BenchmarkRunRedisRecorded(b *testing.B) {
	sc := harness.Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	for i := 0; i < b.N; i++ {
		col := telemetry.NewCollector()
		out, err := harness.Run(workload.Redis(), sc, harness.Plan{SlowdownPct: 3,
			Config: func(cfg *sim.Config) { cfg.Recorder = col }})
		if err != nil {
			b.Fatal(err)
		}
		if err := col.WriteChromeTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
		if err := col.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Result.Ops), "sim_ops")
			b.ReportMetric(float64(col.EventCount()), "events")
		}
	}
}

// BenchmarkRunWebSearch is BenchmarkRunRedis for a Zipfian app: web-search
// at bench scale draws 99.6 % of its accesses through rng.Zipfian.Next,
// redis none, so only this one sees what request generation costs.
func BenchmarkRunWebSearch(b *testing.B) {
	sc := harness.Bench()
	sc.DurationNs = 20e9
	sc.WarmupNs = 4e9
	benchRun(b, workload.WebSearch(), sc)
}

// BenchmarkFleetNight is the fleet's counterpart: the four-tenant night cast
// on one machine under fleet.Run at tiny scale (no baselines, the default
// unconstrained pool) — the planned WRR interleave, per-tenant request
// draws, arbiter rounds, an arrival and a departure on top of what
// BenchmarkRunRedis pays per access.
func BenchmarkFleetNight(b *testing.B) {
	sc := harness.Tiny()
	for i := 0; i < b.N; i++ {
		out, err := harness.FleetRun(harness.FleetOptions{Scale: sc, Tenants: harness.FleetNightTenants(sc)})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(out.Result.Global.Ops), "sim_ops")
		}
	}
}
