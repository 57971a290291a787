package core

import (
	"fmt"
	"testing"

	"thermostat/internal/cgroup"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// randomSpec builds an arbitrary-but-valid workload from the seed: 2-5
// segments with random sizes, weights, pickers and write fractions.
func randomSpec(r *rng.PCG) workload.Spec {
	n := 2 + r.Intn(4)
	spec := workload.Spec{
		Name:      fmt.Sprintf("random-%d", n),
		ComputeNs: int64(2000 + r.Intn(4000)),
	}
	for i := 0; i < n; i++ {
		var picker workload.Picker
		switch r.Intn(4) {
		case 0:
			picker = workload.Uniform{}
		case 1:
			picker = &workload.Zipf{}
		case 2:
			picker = &workload.Sweep{Dwell: 1 + r.Intn(32)}
		default:
			picker = &workload.StridedScan{Stride: uint64(1 + r.Intn(200))}
		}
		spec.Segments = append(spec.Segments, workload.SegmentSpec{
			Name:      fmt.Sprintf("seg%d", i),
			Bytes:     uint64(2+r.Intn(14)) << 20,
			Weight:    r.Float64(),
			Picker:    picker,
			WriteFrac: r.Float64() * 0.9,
		})
	}
	// Guarantee non-zero traffic.
	spec.Segments[0].Weight += 0.1
	return spec
}

// TestEngineInvariantsUnderRandomWorkloads drives Thermostat over randomized
// workload shapes and checks the properties that must hold regardless of
// traffic: machine-wide mapping/allocator invariants, non-negative
// accounting, and classification state consistency.
func TestEngineInvariantsUnderRandomWorkloads(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration property test")
	}
	for seed := uint64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed * 7919)
			spec := randomSpec(r)
			m := testMachine(t)
			p := cgroup.Default()
			p.SamplePeriodNs = 150e6
			p.SampleFraction = 0.2
			g, err := cgroup.NewGroup("prop", p)
			if err != nil {
				t.Fatal(err)
			}
			eng := NewEngine(g, seed)
			app, err := workload.NewApp(spec, 1, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 3e9})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Verify(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			st := eng.Stats()
			if st.Promotions > st.Demotions {
				t.Fatalf("more promotions (%d) than demotions (%d)",
					st.Promotions, st.Demotions)
			}
			if eng.ColdPages() != int(st.Demotions-st.Promotions) {
				t.Fatalf("cold set %d != demotions-promotions %d",
					eng.ColdPages(), st.Demotions-st.Promotions)
			}
			fp := res.FinalFootprint
			if fp.Total() == 0 {
				t.Fatal("empty footprint")
			}
			// Cold bytes in the footprint match the engine's cold set plus
			// any split cold pages (4K cold counts toward the same pages).
			coldPages := int(fp.Cold() / (2 << 20))
			if coldPages != eng.ColdPages() {
				t.Fatalf("footprint cold pages %d != engine cold set %d",
					coldPages, eng.ColdPages())
			}
		})
	}
}
