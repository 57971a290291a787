package harness

import (
	"bytes"
	"reflect"
	"testing"

	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// perOpApp hides workload.App's NextBatch: embedding the sim.App interface
// promotes only its own methods, so sim.Run issues blocks of one — the
// reference the batched engine is compared against.
type perOpApp struct{ sim.App }

// runThermostatBatch assembles the tiny-scale Thermostat run the harness
// would and drives it with the app as built (blocks of N) or wrapped in
// perOpApp (blocks of one), returning the result and telemetry exports.
func runThermostatBatch(t *testing.T, spec workload.Spec, sc Scale, hide bool) (*sim.RunResult, []byte, []byte) {
	t.Helper()
	col := telemetry.NewCollector()
	a, err := Assemble(spec, sc, Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = col }})
	if err != nil {
		t.Fatal(err)
	}
	var app sim.App = a.App
	if hide {
		app = perOpApp{app}
	}
	res, err := sim.Run(a.Machine, app, a.Policy, sim.RunConfig{
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
// deep-equal RunResult and byte-equal telemetry exports in blocks of N and
// in blocks of one.
func TestThermostatBatchSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	t.Parallel()
	spec, ok := workload.ByName("redis")
	if !ok {
		t.Fatal("redis spec missing")
	}
	sc := Tiny()
	batched, bTrace, bMetrics := runThermostatBatch(t, spec, sc, false)
	serial, sTrace, sMetrics := runThermostatBatch(t, spec, sc, true)
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
