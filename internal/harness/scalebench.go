// Scaling benchmark: how simulation cost grows with simulated footprint.
//
// The sweep runs the synthetic scaling workload (workload.ScaleSynthetic,
// stretched with WithFootprint) under the full Thermostat engine at
// footprints from 1 GB to 1 TB, and reports two unit costs per point:
//
//   - ns per simulated access (wall-clock over the whole run, allocation
//     and engine ticks included), which must stay bounded as the footprint
//     grows — the sparse table's O(regions) scans are what keep it flat;
//   - simulator state bytes per simulated GB (page table + allocator +
//     trap + engine metadata), which must *shrink* with footprint in
//     sparse mode because cold terabytes collapse into span summaries.
//
// Both arms are measured at every footprint. A dense table's per-tick cost
// follows the regions the engine samples, not the footprint (Split and
// Collapse never touch the slot index), so its ns/op stays within a small
// factor of sparse up to a terabyte; what the sparse representation buys is
// state — dense keeps one index ref plus a radix share per mapped 2MB page,
// about 1.2 MB per simulated GB, against a constant ~150 KB for sparse.
package harness

import (
	"fmt"
	"time"

	"thermostat/internal/report"
	"thermostat/internal/workload"
)

// ScalePoint is one (footprint, representation) cell of the scaling sweep.
type ScalePoint struct {
	Footprint  uint64  `json:"footprint_bytes"`
	Sparse     bool    `json:"sparse"`
	Ops        uint64  `json:"ops"`
	WallNs     int64   `json:"wall_ns"`
	NsPerOp    float64 `json:"ns_per_op"`
	StateBytes uint64  `json:"state_bytes"`
	StatePerGB float64 `json:"state_bytes_per_gb"`
	Regions    int     `json:"regions"`
	Spans      int     `json:"spans"`
}

// ScaleBenchProfile is the profile every sweep point runs under: no
// footprint divisor (the point *is* the simulated footprint), with the
// bench profile's time compression so each point simulates a handful of
// scan intervals in a few hundred milliseconds of wall clock.
func ScaleBenchProfile() Scale {
	return Scale{
		Name: "scale", Div: 1, TimeDilate: 8,
		PeriodNs: 1e9, DurationNs: 12e9, WarmupNs: 2e9, Seed: 1,
	}
}

// scaleSpec builds the sweep workload at the given footprint: the 1 GiB
// synthetic spec with only its cold reserve stretched to make up the total.
// The hot and warm working sets stay at their 1 GiB sizes — the paper's
// premise is that footprints grow while working sets do not — so every
// sweep point has identical per-access microarchitectural behavior
// (TLB/LLC hit rates, picker distributions) and ns/op differences isolate
// simulator cost. Footprints at or below 1 GiB use the spec as declared
// (proportional shaping for small points is WithFootprint's job).
func scaleSpec(footprint uint64) workload.Spec {
	spec := workload.ScaleSynthetic()
	var rest uint64
	cold := -1
	for i := range spec.Segments {
		if spec.Segments[i].Name == "cold" {
			cold = i
		} else {
			rest += spec.Segments[i].Bytes
		}
	}
	if cold >= 0 && footprint > rest+spec.Segments[cold].Bytes {
		spec.Segments[cold].Bytes = footprint - rest
	}
	return spec
}

// RunScalePoint measures one sweep cell: footprint simulated bytes under the
// Thermostat engine, dense or sparse. The profile's Div must be 1 — the
// footprint is not re-divided.
func RunScalePoint(sc Scale, footprint uint64, sparse bool) (*ScalePoint, error) {
	if sc.Div != 1 {
		return nil, fmt.Errorf("harness: scale bench needs Div=1, got %d", sc.Div)
	}
	sc.Sparse = sparse
	spec := scaleSpec(footprint)
	start := time.Now()
	out, err := Run(spec, sc, Plan{SlowdownPct: 3})
	if err != nil {
		return nil, fmt.Errorf("harness: scale point %s: %w", workload.FormatSize(footprint), err)
	}
	wall := time.Since(start)
	p := &ScalePoint{
		Footprint:  footprint,
		Sparse:     sparse,
		Ops:        out.Result.Ops,
		WallNs:     wall.Nanoseconds(),
		StateBytes: out.Machine.StateBytes() + out.Engine.StateBytes(),
		Regions:    out.Machine.PageTable().RegionCount(),
		Spans:      out.Machine.PageTable().SpanCount(),
	}
	if p.Ops > 0 {
		p.NsPerOp = float64(p.WallNs) / float64(p.Ops)
	}
	p.StatePerGB = float64(p.StateBytes) / (float64(footprint) / float64(1<<30))
	return p, nil
}

// ScaleSweep runs the full scaling benchmark: the dense and the sparse arm
// at every footprint in footprints.
func ScaleSweep(sc Scale, footprints []uint64) ([]*ScalePoint, error) {
	var points []*ScalePoint
	for _, fp := range footprints {
		for _, sparse := range []bool{false, true} {
			p, err := RunScalePoint(sc, fp, sparse)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// CheckScaleGate asserts the scaling acceptance criteria over a completed
// sweep and describes any violation:
//
//  1. at the largest footprint, sparse state bytes per simulated GB are at
//     most maxStateFrac of the dense baseline's;
//  2. sparse ns/op at the largest footprint is within maxNsOpRatio of the
//     sparse ns/op at the smallest footprint.
func CheckScaleGate(points []*ScalePoint, maxStateFrac, maxNsOpRatio float64) error {
	var smallest, largest *ScalePoint
	var denseAtLargest *ScalePoint
	for _, p := range points {
		if p.Sparse {
			if smallest == nil || p.Footprint < smallest.Footprint {
				smallest = p
			}
			if largest == nil || p.Footprint > largest.Footprint {
				largest = p
			}
		}
	}
	if smallest == nil || largest == nil {
		return fmt.Errorf("harness: sweep has no sparse points")
	}
	for _, p := range points {
		if !p.Sparse && p.Footprint == largest.Footprint {
			denseAtLargest = p
		}
	}
	if denseAtLargest == nil {
		return fmt.Errorf("harness: sweep has no dense baseline at %s",
			workload.FormatSize(largest.Footprint))
	}
	if largest.StatePerGB > maxStateFrac*denseAtLargest.StatePerGB {
		return fmt.Errorf("harness: sparse state %.0f B/GB at %s exceeds %.0f%% of dense %.0f B/GB",
			largest.StatePerGB, workload.FormatSize(largest.Footprint),
			maxStateFrac*100, denseAtLargest.StatePerGB)
	}
	if smallest.NsPerOp > 0 && largest.NsPerOp > maxNsOpRatio*smallest.NsPerOp {
		return fmt.Errorf("harness: sparse %.0f ns/op at %s exceeds %.1fx the %.0f ns/op at %s",
			largest.NsPerOp, workload.FormatSize(largest.Footprint),
			maxNsOpRatio, smallest.NsPerOp, workload.FormatSize(smallest.Footprint))
	}
	return nil
}

// ScaleFootprints is the committed sweep's footprint ladder, 1 GB to 1 TB.
func ScaleFootprints() []uint64 {
	return []uint64{1 << 30, 4 << 30, 16 << 30, 64 << 30, 256 << 30, 1 << 40}
}

// ScaleTable renders a completed sweep as the repro report table.
func ScaleTable(points []*ScalePoint) *report.Table {
	t := report.NewTable("Scaling sweep: simulator cost vs simulated footprint",
		"footprint", "table", "ops", "ns/op",
		"state_bytes", "state_B/GB", "regions", "spans")
	for _, p := range points {
		kind := "dense"
		if p.Sparse {
			kind = "sparse"
		}
		t.AddF(workload.FormatSize(p.Footprint), kind, p.Ops,
			fmt.Sprintf("%.0f", p.NsPerOp), p.StateBytes,
			fmt.Sprintf("%.0f", p.StatePerGB), p.Regions, p.Spans)
	}
	return t
}
