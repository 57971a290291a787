package sim_test

import (
	"bytes"
	"reflect"
	"testing"

	"thermostat/internal/harness"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// runThermostatBatch assembles the tiny-scale Thermostat run the harness
// would and drives it with loop (sim.Run or the per-op oracle), returning the
// result and telemetry exports.
func runThermostatBatch(t *testing.T, spec workload.Spec, sc harness.Scale,
	loop func(*sim.Machine, sim.App, sim.Policy, sim.RunConfig) (*sim.RunResult, error)) (*sim.RunResult, []byte, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	a, err := harness.Assemble(spec, sc, harness.Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = col }})
	if err != nil {
		t.Fatal(err)
	}
	res, err := loop(a.Machine, a.App, a.Policy, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
	})
	if err != nil {
		t.Fatal(err)
	}
	var trace, metrics bytes.Buffer
	if err := col.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&metrics); err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), metrics.Bytes()
}

// TestThermostatBatchSerialEquivalence proves the batched hot path is
// bit-identical end to end: a seeded redis run under the full Thermostat
// engine (sampling, classification, migration, THP churn) must produce a
// deep-equal RunResult and byte-equal telemetry exports under sim.Run's
// blocks of N and under the per-op oracle.
func TestThermostatBatchSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	t.Parallel()
	spec, ok := workload.ByName("redis")
	if !ok {
		t.Fatal("redis spec missing")
	}
	sc := harness.Tiny()
	batched, bTrace, bMetrics := runThermostatBatch(t, spec, sc, sim.Run)
	serial, sTrace, sMetrics := runThermostatBatch(t, spec, sc, sim.RefRun)
	if batched.Ops != serial.Ops {
		t.Errorf("ops: batched %d serial %d", batched.Ops, serial.Ops)
	}
	if !reflect.DeepEqual(batched.Metrics, serial.Metrics) {
		t.Errorf("metrics diverge:\nbatched %+v\nserial  %+v", batched.Metrics, serial.Metrics)
	}
	if !reflect.DeepEqual(batched, serial) {
		t.Error("run results diverge (series/histograms/footprints)")
	}
	if !bytes.Equal(bTrace, sTrace) || !bytes.Equal(bMetrics, sMetrics) {
		t.Error("telemetry exports diverge")
	}
	if batched.Metrics.SlowAccesses == 0 {
		t.Error("no slow accesses — Thermostat never demoted, differential run too weak")
	}
}
