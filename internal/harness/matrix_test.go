package harness

import (
	"bytes"
	"reflect"
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

// TestMatrixDeterministicAcrossWorkers: every new tracker × policy cell must
// produce identical scores whether the sweep runs serially or fanned out.
func TestMatrixDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	spec, _ := workload.ByName("redis")
	opts := func(workers int) MatrixOptions {
		return MatrixOptions{
			Scale:      matrixScale(),
			Apps:       []workload.Spec{spec},
			Trackers:   []string{"idlebit", "damon"},
			Policies:   []string{"threshold", "heat"},
			Topologies: []MatrixTopology{TwoTierTopology()},
			Workers:    workers,
		}
	}
	serial, err := PolicyMatrix(opts(1))
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := PolicyMatrix(opts(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Cells, fanned.Cells) {
		t.Fatalf("matrix cells depend on worker count:\n w1: %+v\n w8: %+v",
			serial.Cells, fanned.Cells)
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
	spec, _ := workload.ByName("redis")
	rep, err := PolicyMatrix(MatrixOptions{
		Scale:      sc,
		Apps:       []workload.Spec{spec},
		Topologies: []MatrixTopology{TwoTierTopology()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 8 {
		t.Fatalf("expected 4 trackers × 2 policies = 8 cells, got %d", len(rep.Cells))
	}
	var demotions uint64
	for _, c := range rep.Cells {
		if c.SlowdownPct < -1 || c.SlowdownPct > 50 {
			t.Errorf("%s+%s: implausible slowdown %v%%", c.Tracker, c.Policy, c.SlowdownPct)
		}
		if c.ColdFraction < 0 || c.ColdFraction > 1 {
			t.Errorf("%s+%s: cold fraction %v outside [0, 1]", c.Tracker, c.Policy, c.ColdFraction)
		}
		demotions += c.Stats.Demotions
	}
	if demotions == 0 {
		t.Fatal("no composition demoted anything")
	}
}
