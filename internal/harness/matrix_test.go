package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

func matrixScale() Scale {
	sc := Tiny()
	sc.DurationNs = 4_000_000_000
	sc.WarmupNs = 1_000_000_000
	return sc
}

// TestComposedThermostatMatchesSeedEngine is the refactor's differential
// gate at the library layer: the explicit poison+threshold composition must
// replay the monolithic engine's run event-for-event — byte-identical trace
// and metrics streams, identical counters.
func TestComposedThermostatMatchesSeedEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	spec, _ := workload.ByName("redis")
	sc := matrixScale()

	run := func(composed bool) (*Outcome, *telemetry.Collector) {
		col := telemetry.NewCollector()
		attach := func(cfg *sim.Config) { cfg.Recorder = col }
		var out *Outcome
		var err error
		if composed {
			out, err = Run(spec, sc, Plan{SlowdownPct: 3, Tracker: "poison", Placement: "threshold", Config: attach})
		} else {
			out, err = Run(spec, sc, Plan{SlowdownPct: 3, Config: attach})
		}
		if err != nil {
			t.Fatal(err)
		}
		return out, col
	}
	seedOut, seedCol := run(false)
	compOut, compCol := run(true)

	if got, want := compOut.Engine.Stats(), seedOut.Engine.Stats(); got != want {
		t.Fatalf("composition stats diverged:\n got %+v\nwant %+v", got, want)
	}
	// The engine's registry name is the only permitted difference.
	seedRes, compRes := *seedOut.Result, *compOut.Result
	if seedRes.PolicyName != "thermostat" || compRes.PolicyName != "poison+threshold" {
		t.Fatalf("unexpected engine names %q / %q", seedRes.PolicyName, compRes.PolicyName)
	}
	seedRes.PolicyName, compRes.PolicyName = "", ""
	if !reflect.DeepEqual(seedRes, compRes) {
		t.Fatalf("run results diverged:\n got %+v\nwant %+v", compRes, seedRes)
	}
	var seedTrace, compTrace, seedMetrics, compMetrics bytes.Buffer
	if err := seedCol.WriteChromeTrace(&seedTrace); err != nil {
		t.Fatal(err)
	}
	if err := compCol.WriteChromeTrace(&compTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seedTrace.Bytes(), compTrace.Bytes()) {
		t.Fatal("trace streams diverged between seed engine and composition")
	}
	if err := seedCol.WriteJSONL(&seedMetrics); err != nil {
		t.Fatal(err)
	}
	if err := compCol.WriteJSONL(&compMetrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seedMetrics.Bytes(), compMetrics.Bytes()) {
		t.Fatal("metric streams diverged between seed engine and composition")
	}
}

// matrixTwoTier is the matrix row of redis on the paper's two tiers.
func matrixTwoTier(t *testing.T, sc Scale) row {
	t.Helper()
	rows, _ := matrix(Options{Scale: sc, Apps: []workload.Spec{workload.Redis()}, SlowdownPct: 3})
	if r := rows[0]; len(r.arms[0].plan.Tiers) == 0 {
		return r
	}
	t.Fatal("first matrix row is not the two-tier topology")
	return row{}
}

// TestMatrixDeterministicAcrossWorkers: every new tracker × policy cell must
// produce identical scores whether the sweep runs serially or fanned out.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	r := matrixTwoTier(t, matrixScale())
	arms := r.arms[:1]
	for _, a := range r.arms[1:] {
		tracker, policy, _ := strings.Cut(a.name, "+")
		if (tracker == "idlebit" || tracker == "damon") && (policy == "threshold" || policy == "heat") {
			arms = append(arms, a)
		}
	}
	r.arms = arms
	if len(r.arms) != 5 {
		t.Fatalf("sliced %d arms, want the baseline and 2 trackers × 2 policies", len(r.arms))
	}
	serial, fanned := runRow(t, 1, r), runRow(t, 8, r)
	for j, a := range r.arms {
		s, f := serial[j], fanned[j]
		if !reflect.DeepEqual(s.Result, f.Result) {
			t.Errorf("%s: run results depend on worker count", a.name)
		}
		if j == 0 {
			continue
		}
		if s.Engine.Stats() != f.Engine.Stats() {
			t.Errorf("%s: engine stats depend on worker count: %+v vs %+v", a.name, s.Engine.Stats(), f.Engine.Stats())
		}
		sa, sok := confusionAccuracy(s.Telemetry, r.sc.WarmupNs)
		fa, fok := confusionAccuracy(f.Telemetry, r.sc.WarmupNs)
		if sa != fa || sok != fok {
			t.Errorf("%s: accuracy depends on worker count: %v vs %v", a.name, sa, fa)
		}
	}
}

// TestMatrixSmoke exercises one abbreviated run per tracker × policy cell on
// the two-tier topology — the CI gate that every composition still builds,
// attaches and migrates deterministically end-to-end.
func TestMatrixSmoke(t *testing.T) {
	t.Parallel()
	sc := matrixScale()
	if testing.Short() {
		sc.DurationNs = 2_000_000_000
		sc.WarmupNs = 500_000_000
	}
	r := matrixTwoTier(t, sc)
	outs := runRow(t, 0, r)
	if len(outs) != 9 {
		t.Fatalf("expected the baseline and 4 trackers × 2 policies = 8 cells, got %d runs", len(outs))
	}
	var demotions uint64
	for j, out := range outs[1:] {
		name := r.arms[j+1].name
		if sd := 100 * sim.Slowdown(outs[0].Result, out.Result); sd < -1 || sd > 50 {
			t.Errorf("%s: implausible slowdown %v%%", name, sd)
		}
		if cf := out.Result.MeanColdFraction(sc.WarmupNs); cf < 0 || cf > 1 {
			t.Errorf("%s: cold fraction %v outside [0, 1]", name, cf)
		}
		demotions += out.Engine.Stats().Demotions
	}
	if demotions == 0 {
		t.Fatal("no composition demoted anything")
	}
}
