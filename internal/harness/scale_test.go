package harness

import (
	"encoding/json"
	"reflect"
	"testing"

	"thermostat/internal/workload"
)

// shardProfile is the quick profile the determinism and gate tests run
// under: small simulated duration, Div=1 so the footprint override is taken
// literally, sparse tables on.
func shardProfile() Scale {
	return Scale{
		Name: "shard-test", Div: 1, TimeDilate: 8,
		PeriodNs: 500e6, DurationNs: 4e9, WarmupNs: 1e9, Seed: 1,
		Sparse: true,
	}
}

// TestShardWorkersIdentical pins the sharding determinism contract: the
// same run at shard-workers 0 (serial path), 1, and 8 must produce
// reflect.DeepEqual results and byte-identical JSON exports — sharding is
// a wall-clock knob, never a semantics knob. The three-tier plan covers the
// path that used to drop Scale.ShardWorkers on the floor.
func TestShardWorkersIdentical(t *testing.T) {
	spec := workload.ScaleSynthetic().WithFootprint(1 << 30)
	for _, tc := range []struct {
		name string
		plan Plan
	}{
		{"two-tier", Plan{SlowdownPct: 3}},
		{"three-tier", Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref *Outcome
			var refJSON []byte
			for _, w := range []int{0, 1, 8} {
				sc := shardProfile()
				sc.ShardWorkers = w
				out, err := Run(spec, sc, tc.plan)
				if err != nil {
					t.Fatalf("shard-workers %d: %v", w, err)
				}
				js, err := json.Marshal(out.Result)
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref, refJSON = out, js
					continue
				}
				if !reflect.DeepEqual(ref.Result, out.Result) {
					t.Fatalf("shard-workers %d diverged from serial run result", w)
				}
				if !reflect.DeepEqual(ref.Engine.Stats(), out.Engine.Stats()) {
					t.Fatalf("shard-workers %d diverged in engine stats", w)
				}
				if string(refJSON) != string(js) {
					t.Fatalf("shard-workers %d JSON export not byte-identical", w)
				}
			}
			if ref.Engine.Stats().Sampled == 0 {
				t.Fatal("engine never sampled: the sharded scan path was not exercised")
			}
		})
	}
}

// TestShardWorkersIdenticalDense re-pins the same contract on a dense
// table, where shard windows partition plain leaf sequences.
func TestShardWorkersIdenticalDense(t *testing.T) {
	spec := workload.ScaleSynthetic().WithFootprint(1 << 30)
	sc := shardProfile()
	sc.Sparse = false
	serial, err := Run(spec, sc, Plan{SlowdownPct: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc.ShardWorkers = 8
	sharded, err := Run(spec, sc, Plan{SlowdownPct: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Result, sharded.Result) {
		t.Fatal("dense sharded run diverged from serial")
	}
}

// TestScaleStateShrinks is the short-mode gate: growing the footprint
// 1 GB -> 16 GB must shrink sparse state bytes per simulated GB (the
// sublinearity claim), and sparse state must undercut the dense table's at
// equal footprint.
func TestScaleStateShrinks(t *testing.T) {
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 4e9, 1e9
	oneGB, err := RunScalePoint(sc, 1<<30, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	sixteenGB, err := RunScalePoint(sc, 16<<30, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sixteenGB.StatePerGB >= oneGB.StatePerGB {
		t.Fatalf("state bytes/GB did not shrink: 1GB=%.0f 16GB=%.0f",
			oneGB.StatePerGB, sixteenGB.StatePerGB)
	}
	dense, err := RunScalePoint(sc, 1<<30, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oneGB.StateBytes*10 >= dense.StateBytes {
		t.Fatalf("sparse state %d not under 10%% of dense %d at 1GB",
			oneGB.StateBytes, dense.StateBytes)
	}
}

// TestScaleSweepGate runs a miniature sweep end-to-end through the same
// gate predicate cmd/repro applies to the committed numbers.
func TestScaleSweepGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 4e9, 1e9
	points, err := ScaleSweep(sc, []uint64{1 << 30, 4 << 30, 128 << 30}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Both arms are measured at every footprint, dense first.
	if len(points) != 6 {
		t.Fatalf("sweep returned %d points, want 6", len(points))
	}
	for i, p := range points {
		if p.Sparse != (i%2 == 1) || p.Ops == 0 || p.Regions == 0 {
			t.Fatalf("point %d: sparse=%v ops=%d regions=%d", i, p.Sparse, p.Ops, p.Regions)
		}
	}
	if err := CheckScaleGate(points, 0.10, 2.0); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScalePoint keeps the sweep cell benchmarkable from go test
// -bench (the CI bench-compile smoke target).
func BenchmarkScalePoint(b *testing.B) {
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 2e9, 500e6
	for i := 0; i < b.N; i++ {
		if _, err := RunScalePoint(sc, 1<<30, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}
