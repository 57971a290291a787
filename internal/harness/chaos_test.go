package harness

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"thermostat/internal/chaos"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// chaosScale shortens Tiny for the chaos differential tests: the runs need
// several scan periods of migration activity, not the full schedule.
func chaosScale() Scale {
	sc := Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	return sc
}

// runWithChaos runs one workload under Thermostat with the given injector
// config and a telemetry collector attached.
func runWithChaos(t *testing.T, app string, sc Scale, cfg chaos.Config) (*Outcome, *telemetry.Collector) {
	t.Helper()
	spec, ok := workload.ByName(app)
	if !ok {
		t.Fatalf("no workload %q", app)
	}
	col := telemetry.NewCollector()
	out, err := Run(spec, sc, Plan{SlowdownPct: 3, Config: func(c *sim.Config) {
		c.Recorder = col
		c.Chaos = cfg
	}})
	if err != nil {
		t.Fatal(err)
	}
	return out, col
}

func exportBytes(t *testing.T, col *telemetry.Collector) (trace, metrics []byte) {
	t.Helper()
	var tb, mb bytes.Buffer
	if err := col.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), mb.Bytes()
}

// TestChaosRateZeroIsByteIdentical is the tentpole differential gate: a
// chaos config with rate 0 — even with a seed and permanent fraction set —
// must install no injector, leaving the run byte-identical to an
// uninjected one (traces, metrics, final counters, throughput).
func TestChaosRateZeroIsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	plain, plainCol := runWithChaos(t, "redis", chaosScale(), chaos.Config{})
	zero, zeroCol := runWithChaos(t, "redis", chaosScale(),
		chaos.Config{Seed: 7, Rate: 0, PermanentFraction: 1})

	ptrace, pmetrics := exportBytes(t, plainCol)
	ztrace, zmetrics := exportBytes(t, zeroCol)
	if !bytes.Equal(ptrace, ztrace) {
		t.Error("chaos-rate-0 Chrome trace differs from the uninjected run's")
	}
	if !bytes.Equal(pmetrics, zmetrics) {
		t.Error("chaos-rate-0 JSONL metrics differ from the uninjected run's")
	}
	if !reflect.DeepEqual(plain.Result.Metrics, zero.Result.Metrics) {
		t.Error("chaos-rate-0 machine counters differ from the uninjected run's")
	}
	if plain.Result.Throughput != zero.Result.Throughput {
		t.Errorf("throughput differs: %g vs %g", plain.Result.Throughput, zero.Result.Throughput)
	}
	if !zero.Faults.Zero() {
		t.Errorf("rate-0 run reports fault activity: %+v", zero.Faults)
	}
}

// TestChaosRateSweepWorkerInvariance: a seeded injection-rate sweep, one row of
// Thermostat arms on the grid, must be bit-identical at any worker count —
// every arm owns its machine, injector stream, and RNG. Rate 0 installs no
// injector at all, so that arm doubles as the sweep's control run.
func TestChaosRateSweepWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	spec, _ := workload.ByName("redis")
	sweep := row{spec: spec, sc: chaosScale()}
	for _, rate := range []float64{0, 0.02, 0.1} {
		cfg := chaos.Config{Seed: 11, Rate: rate, PermanentFraction: 0.25}
		sweep.arms = append(sweep.arms, arm{name: fmt.Sprintf("rate=%g", rate),
			plan: Plan{SlowdownPct: 3, Config: func(c *sim.Config) { c.Chaos = cfg }}})
	}
	p1, p8 := runRow(t, 1, sweep), runRow(t, 8, sweep)
	for i := range p1 {
		a, b, name := p1[i], p8[i], sweep.arms[i].name
		if a.Faults != b.Faults {
			t.Errorf("%s: fault reports differ across worker counts:\n  w1: %+v\n  w8: %+v",
				name, a.Faults, b.Faults)
		}
		if !reflect.DeepEqual(a.Result.Metrics, b.Result.Metrics) {
			t.Errorf("%s: machine counters differ across worker counts", name)
		}
		if a.Result.Throughput != b.Result.Throughput {
			t.Errorf("%s: throughput differs across worker counts", name)
		}
	}
	if !p1[0].Faults.Zero() {
		t.Errorf("rate-0 arm reports fault activity: %+v", p1[0].Faults)
	}
	if p1[2].Faults.Injected == 0 {
		t.Error("rate-0.1 arm injected nothing — the sweep exercised no faults")
	}
}

// TestChaosPermanentFaultsQuarantine is the graceful-degradation
// acceptance run: with permanent migration failures injected, the run must
// complete (not abort), report retry/rollback/quarantine counts in the
// FaultReport, and expose them through the telemetry snapshots and epoch
// table.
func TestChaosPermanentFaultsQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// Cassandra demotes steadily at Tiny scale; forcing every migration
	// copy to fault exercises the full retry -> rollback -> quarantine
	// chain (PermanentFraction splits injections between the immediate
	// and exhaustion quarantine paths).
	out, col := runWithChaos(t, "cassandra", Tiny(), chaos.Config{
		Seed:              3,
		SiteRates:         map[chaos.Site]float64{chaos.MigrateCopy: 1},
		PermanentFraction: 0.5,
	})
	f := out.Faults
	if f.Injected == 0 || f.Permanent == 0 {
		t.Fatalf("injector idle: %+v", f)
	}
	if f.Quarantined == 0 {
		t.Errorf("no pages quarantined despite permanent faults: %+v", f)
	}
	if f.Retried == 0 {
		t.Errorf("no retries despite transient faults: %+v", f)
	}
	if f.RolledBack == 0 {
		t.Errorf("no rollbacks despite mid-copy faults: %+v", f)
	}

	var injected, retried, quarantined uint64
	for _, s := range col.Snapshots() {
		injected += s.FaultsInjected
		retried += s.MigrationRetries
		quarantined += s.PagesQuarantined
	}
	if injected == 0 || retried == 0 || quarantined == 0 {
		t.Errorf("epoch snapshots missing fault activity: injected=%d retried=%d quarantined=%d",
			injected, retried, quarantined)
	}
	table := col.EpochTable()
	if !strings.Contains(table, "inject") || !strings.Contains(table, "quar") {
		t.Error("epoch table missing the chaos columns")
	}
	_, metrics := exportBytes(t, col)
	if !bytes.Contains(metrics, []byte("chaos_injected")) {
		t.Error("JSONL metrics omit chaos counters for an injected run")
	}
}

// TestThermostatSurvivesFullSlowTier is the satellite regression: a slow
// tier with almost no capacity used to abort the policy loop on the first
// promotion pressure; with uniform retry/quarantine the run completes and
// accounts for every abandoned move.
func TestThermostatSurvivesFullSlowTier(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	spec, _ := workload.ByName("redis")
	out, err := Run(spec, chaosScale(), Plan{SlowdownPct: 3, Config: func(c *sim.Config) {
		c.SlowSpec.Capacity = 2 << 20 // one 2MB frame: demotion pressure hits OOM fast
	}})
	if err != nil {
		t.Fatalf("full slow tier aborted the run: %v", err)
	}
	st := out.Engine.Stats()
	if st.DemoteFailures == 0 {
		t.Error("no demote failures recorded against a full slow tier")
	}
	if out.Faults.Retried == 0 {
		t.Error("full-tier demotions were not retried")
	}
	if out.Faults.Quarantined == 0 {
		t.Error("exhausted demotions were not quarantined")
	}
}
