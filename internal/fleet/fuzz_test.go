package fleet

import (
	"fmt"
	"testing"

	"thermostat/internal/workload"
)

// fuzzPeriodNs is the base period of a fuzzed run; everything else — run
// length, windows, arbiter rounds, scan intervals, churn times — is a small
// multiple or fraction of it, so a run is at most a few tens of thousands
// of ops.
const fuzzPeriodNs = 200_000

// fuzzCast decodes bytes into a short fleet run. The layout is positional so
// the seed corpus can be written by hand; a missing byte reads as zero.
//
//	0  tenants-1 (mod 4)
//	1  run length in periods: 4 + b%9
//	2  window:  b%4 → default, P/2, P, 3P/2
//	3  arbiter: b%4 → default, P/2, P, 3P/2
//	4  warm-up: b%4 eighths of the run, plus b>>2 ns
//	5  unused (the committed corpus fixes the layout)
//	6  threads: b%3 → 1, 2, 8
//	7  pool:    (8 + b%5)/8 of the initial population's footprint
//	8  seed
//
// then eight bytes per tenant:
//
//	0  share-1 (mod 5)
//	1  arrival:   0 → present at the start, else (b%8)/8 of the run + b>>3 ns
//	2  departure: 0 → stays, else (b%8)/8 of the run + b>>3 ns
//	3  flags: 2 grows the footprint, 4 drops the admission estimate (1 is
//	   unused)
//	4  hot segment's picker b%4 (uniform, Zipf, rotating hotspot sweep,
//	   strided scan) and compute time (b>>2)%3 → 400, 2000, 6000 ns
//	5  scan interval: b%3 → P, 3P/4, 3P/2
//	6  floor: b%4 eighths of the footprint
//	7  size: hot segment 1 + b%3 huge pages, cold segment 2 + (b>>2)%6
func fuzzCast(data []byte) *cast {
	at := func(i int) int64 {
		if i < len(data) {
			return int64(data[i])
		}
		return 0
	}
	// Footprints are written at 64x and divided back down so the machine
	// comes out small — a 2/16-entry TLB and a 1 MB LLC that the few huge
	// pages here still miss in.
	const p, div, huge = fuzzPeriodNs, 64, 64 * (2 << 20)
	periods := []int64{0, p / 2, p, 3 * p / 2}
	duration := (4 + at(1)%9) * p
	churn := func(b int64) int64 {
		if b == 0 {
			return 0
		}
		return duration*(b%8)/8 + b>>3
	}
	c := &cast{
		div: div, dilate: 1, periodNs: p, sampleFraction: 0.5,
		threads: []int{1, 2, 8}[at(6)%3],
		poolNum: uint64(8 + at(7)%5), poolDen: 8,
		seed: uint64(at(8)),
		cfg: Config{
			DurationNs:      duration,
			WindowNs:        periods[at(2)%4],
			ArbiterPeriodNs: periods[at(3)%4],
			WarmupNs:        duration*(at(4)%4)/8 + at(4)>>2,
		},
	}
	for i := 0; i <= int(at(0)%4); i++ {
		o := 9 + 8*i
		flags, kind, size := at(o+3), at(o+4), at(o+7)
		var hot workload.Picker
		switch kind % 4 {
		case 0:
			hot = workload.Uniform{}
		case 1:
			hot = &workload.Zipf{}
		case 2:
			hot = &workload.HotspotSweep{HotSetFrac: 0.05, HotOpFrac: 0.9, Dwell: 4, RotatePeriodNs: 3 * p / 2}
		case 3:
			hot = &workload.StridedScan{Stride: 97}
		}
		spec := workload.Spec{
			Name:      fmt.Sprintf("fuzz-%d", i),
			ComputeNs: []int64{400, 2000, 6000}[(kind>>2)%3],
			Segments: []workload.SegmentSpec{
				{Name: "hot", Bytes: uint64(1+size%3) * huge, Weight: 0.9, Picker: hot, WriteFrac: 0.3},
				{Name: "cold", Bytes: uint64(2+(size>>2)%6) * huge, Weight: 0.1, Picker: &workload.Sweep{Dwell: 2}},
			},
		}
		if flags&2 != 0 {
			spec.Growth = &workload.GrowthSpec{PeriodNs: 5 * p / 4, ChunkBytes: huge, MaxChunks: 2,
				ActiveSegment: "hot", RetireSegment: "cold"}
		}
		c.tenants = append(c.tenants, castTenant{
			name: spec.Name, spec: spec,
			sloPct: 5, priority: 1 + i%2, share: int(1 + at(o)%5),
			arriveNs: churn(at(o + 1)), departNs: churn(at(o + 2)),
			intervalNs: []int64{p, 3 * p / 4, 3 * p / 2}[at(o+5)%3],
			floorFrac:  float64(at(o+6)%4) / 8,
			noEst:      flags&4 != 0,
		})
	}
	return c
}

// FuzzFleetRunVsPerOp holds Run to refRun on fuzzer-shaped fleets: one to
// four tenants with arbitrary shares, arrivals and departures (including
// stretches with nobody resident, at the start, in the middle and at the
// end), windows, arbiter rounds and scan intervals out of step with each
// other, warm-up marks off any boundary, admissions that are squeezed in or
// rejected. Whatever the run does — including failing — both loops must do
// identically.
func FuzzFleetRunVsPerOp(f *testing.F) {
	// The night in miniature: two residents, a departure, an arrival.
	f.Add([]byte{3, 4, 2, 2, 1, 0, 2, 1, 1,
		1, 0, 0, 0, 2, 0, 1, 5,
		0, 0, 0, 0, 1, 0, 1, 2,
		0, 0, 6, 2, 3, 1, 1, 9,
		0, 3, 0, 0, 5, 2, 1, 4})
	// A gap in the middle: the first tenant leaves before the second comes.
	f.Add([]byte{1, 8, 1, 3, 0x0e, 0, 0, 4, 7,
		2, 0, 0x1a, 0, 0, 0, 0, 0,
		0, 0x2d, 0, 1, 1, 1, 0, 6})
	// Four tenants with unequal shares, pickers and scan intervals.
	f.Add([]byte{3, 2, 0, 0, 2, 9, 1, 0, 3,
		4, 0, 0, 0, 1, 0, 0, 0,
		0, 0, 0, 1, 6, 0, 0, 0,
		2, 0, 0, 0, 3, 1, 0, 0,
		1, 0, 0, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzCast(data)
		got := c.run(t, runOrHang(t))
		want := fuzzCast(data).run(t, refRun)
		requireSameRun(t, got, want)
	})
}
