// Scaling benchmark: how simulation cost grows with simulated footprint.
// The sweep runs the synthetic scaling workload under the full Thermostat
// engine from 1 GB to 1 TB and reports per point the wall-clock ns per
// simulated access (the access path does not see the footprint; the engine
// tick samples a fraction of all huge pages), the simulator state bytes per
// simulated GB (one 4 KB PT node per in-flight sampled page plus the
// poisoned cohort's snapshots, about 0.34 MB), and what the engine did —
// pages sampled and demoted, the final cold fraction — so a row shows the
// mechanism ran, not only that accesses were issued.
package harness

import (
	"encoding/json"
	"fmt"
	"time"

	"thermostat/internal/report"
	"thermostat/internal/workload"
)

// ScalePoint is one footprint of the scaling sweep.
type ScalePoint struct {
	Footprint  uint64  `json:"footprint_bytes"`
	Ops        uint64  `json:"ops"`
	WallNs     int64   `json:"wall_ns"`
	NsPerOp    float64 `json:"ns_per_op"`
	StateBytes uint64  `json:"state_bytes"`
	StatePerGB float64 `json:"state_bytes_per_gb"`
	Regions    int     `json:"regions"`
	Sampled    uint64  `json:"sampled"`
	Demotions  uint64  `json:"demotions"`
	ColdPct    float64 `json:"cold_pct"`
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

// RunScalePoint measures one sweep point: footprint simulated bytes under the
// Thermostat engine. The profile's Div must be 1 — the footprint is not
// re-divided.
func RunScalePoint(sc Scale, footprint uint64) (*ScalePoint, error) {
	if sc.Div != 1 {
		return nil, fmt.Errorf("harness: scale bench needs Div=1, got %d", sc.Div)
	}
	spec := scaleSpec(footprint)
	start := time.Now()
	out, err := Run(spec, sc, Plan{SlowdownPct: 3})
	if err != nil {
		return nil, fmt.Errorf("harness: scale point %s: %w", workload.FormatSize(footprint), err)
	}
	wall := time.Since(start)
	st := out.Engine.Stats()
	p := &ScalePoint{
		Footprint:  footprint,
		Ops:        out.Result.Ops,
		WallNs:     wall.Nanoseconds(),
		StateBytes: out.Machine.StateBytes() + out.Engine.StateBytes(),
		Regions:    out.Machine.PageTable().RegionCount(),
		Sampled:    st.Sampled,
		Demotions:  st.Demotions,
		ColdPct:    100 * out.Result.FinalFootprint.ColdFraction(),
	}
	if p.Ops > 0 {
		p.NsPerOp = float64(p.WallNs) / float64(p.Ops)
	}
	p.StatePerGB = float64(p.StateBytes) / (float64(footprint) / float64(1<<30))
	return p, nil
}

// ScaleSweep runs the scaling benchmark at every footprint in footprints.
func ScaleSweep(sc Scale, footprints []uint64) ([]*ScalePoint, error) {
	var points []*ScalePoint
	for _, fp := range footprints {
		p, err := RunScalePoint(sc, fp)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
	}
	return points, nil
}

// scaleArtifact is the machine-readable shape results/BENCH_scale.json pins.
type scaleArtifact struct {
	Workload string        `json:"workload"`
	Seed     uint64        `json:"seed"`
	Points   []*ScalePoint `json:"points"`
}

// scaleSweep runs the committed sweep, 1 GB to 1 TB at the run's seed: the
// table and results/BENCH_scale.{json,txt}.
func scaleSweep(opt Options, _ map[string]*AppRun) ([]Output, error) {
	sc := ScaleBenchProfile()
	sc.Seed = opt.Scale.Seed
	points, err := ScaleSweep(sc, []uint64{1 << 30, 4 << 30, 16 << 30, 64 << 30, 256 << 30, 1 << 40})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Scaling sweep: simulator cost vs simulated footprint",
		"footprint", "ops", "ns/op", "state_bytes", "state_B/GB", "regions",
		"sampled", "demotions", "cold_pct")
	for _, p := range points {
		t.AddF(workload.FormatSize(p.Footprint), p.Ops,
			fmt.Sprintf("%.0f", p.NsPerOp), p.StateBytes,
			fmt.Sprintf("%.0f", p.StatePerGB), p.Regions,
			p.Sampled, p.Demotions, fmt.Sprintf("%.1f", p.ColdPct))
	}
	js, err := json.MarshalIndent(scaleArtifact{Workload: "scale-synth", Seed: sc.Seed, Points: points}, "", "  ")
	if err != nil {
		return nil, err
	}
	return []Output{
		{Name: "scale", Table: t},
		{Name: "BENCH_scale.json", File: append(js, '\n')},
		{Name: "BENCH_scale.txt", File: []byte(t.String() + "\n")},
	}, nil
}
