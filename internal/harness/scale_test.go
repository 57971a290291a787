package harness

import "testing"

// TestScalePointRunsThermostat: a scale point is a run of the paper's
// mechanism, not only a stream of accesses. The engine samples a fraction of
// all huge pages each interval, so growing the footprint 1 GiB -> 16 GiB
// grows the sampled count with it, pages are demoted at both sizes, and the
// stretched cold reserve ends up in slow memory. What a simulated gigabyte may
// cost the host is capped as well — one 4 KB PT node per in-flight sampled
// page plus the cohort's snapshots comes to about 0.3 MB — so a fat node or a
// map that never forgets fails the scaling gate.
func TestScalePointRunsThermostat(t *testing.T) {
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 4e9, 1e9
	small, err := runScalePoint(sc, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	large, err := runScalePoint(sc, 16<<30)
	if err != nil {
		t.Fatal(err)
	}
	if small.Sampled == 0 || large.Sampled < 8*small.Sampled {
		t.Fatalf("sampled pages did not follow the footprint: 1G=%d 16G=%d (want >= 8x)",
			small.Sampled, large.Sampled)
	}
	if large.StatePerGB > 0.5*(1<<20) {
		t.Fatalf("16 GiB point keeps %.0f state bytes per simulated GB (%d in all), want <= 0.5 MB",
			large.StatePerGB, large.StateBytes)
	}
	for _, p := range []*scalePoint{small, large} {
		if p.Demotions == 0 {
			t.Fatalf("footprint %d: no demotions (sampled %d)", p.Footprint, p.Sampled)
		}
		if p.ColdPct < 1 {
			t.Fatalf("footprint %d: %.2f%% cold after %d demotions", p.Footprint, p.ColdPct, p.Demotions)
		}
	}
}

// TestScaleSweepGate runs a miniature sweep end-to-end, the shape cmd/repro
// writes to results/BENCH_scale.{json,txt}.
func TestScaleSweepGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 4e9, 1e9
	footprints := []uint64{1 << 30, 4 << 30, 128 << 30}
	points, err := runScaleSweep(sc, footprints)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(footprints) {
		t.Fatalf("sweep returned %d points, want %d", len(points), len(footprints))
	}
	for i, p := range points {
		if p.Footprint != footprints[i] || p.Ops == 0 || p.Regions == 0 {
			t.Fatalf("point %d: footprint=%d ops=%d regions=%d", i, p.Footprint, p.Ops, p.Regions)
		}
	}
}

// BenchmarkScalePoint keeps the sweep cell benchmarkable from go test
// -bench (the CI bench-compile smoke target).
func BenchmarkScalePoint(b *testing.B) {
	sc := ScaleBenchProfile()
	sc.DurationNs, sc.WarmupNs = 2e9, 500e6
	for i := 0; i < b.N; i++ {
		if _, err := runScalePoint(sc, 1<<30); err != nil {
			b.Fatal(err)
		}
	}
}
