package harness

import "testing"

// TestScaleStateShrinks is the short-mode gate: growing the footprint
// 1 GB -> 16 GB must shrink sparse state bytes per simulated GB (the
// sublinearity claim), and sparse state must undercut the dense table's at
// equal footprint.
func TestScaleStateShrinks(t *testing.T) {
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 4e9, 1e9
	oneGB, err := RunScalePoint(sc, 1<<30, true)
	if err != nil {
		t.Fatal(err)
	}
	sixteenGB, err := RunScalePoint(sc, 16<<30, true)
	if err != nil {
		t.Fatal(err)
	}
	if sixteenGB.StatePerGB >= oneGB.StatePerGB {
		t.Fatalf("state bytes/GB did not shrink: 1GB=%.0f 16GB=%.0f",
			oneGB.StatePerGB, sixteenGB.StatePerGB)
	}
	dense, err := RunScalePoint(sc, 1<<30, false)
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
	points, err := ScaleSweep(sc, []uint64{1 << 30, 4 << 30, 128 << 30})
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
		if _, err := RunScalePoint(sc, 1<<30, true); err != nil {
			b.Fatal(err)
		}
	}
}
