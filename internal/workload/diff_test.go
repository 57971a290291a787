package workload

import (
	"fmt"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/sim"
)

// appPair drives an App and the reference App of ref_test.go from one spec
// and seed, each on its own machine of the same configuration, so both map
// the same regions at the same addresses.
type appPair struct {
	app       *App
	ref       *refApp
	m, mRef   *sim.Machine
	got, want []sim.Req
	ops       int
}

func newAppPair(tb testing.TB, spec Spec, scale, seed uint64, fastBytes uint64) *appPair {
	tb.Helper()
	p := &appPair{}
	var err error
	for _, m := range []**sim.Machine{&p.m, &p.mRef} {
		if *m, err = sim.New(sim.DefaultConfig(fastBytes, fastBytes)); err != nil {
			tb.Fatal(err)
		}
	}
	if p.app, err = NewApp(spec, scale, seed); err != nil {
		tb.Fatal(err)
	}
	if p.ref, err = newRefApp(spec, scale, seed); err != nil {
		tb.Fatal(err)
	}
	if err := p.app.Init(p.m); err != nil {
		tb.Fatal(err)
	}
	if err := p.ref.Init(p.mRef); err != nil {
		tb.Fatal(err)
	}
	return p
}

// batch draws n accesses from both apps, through NextBatch or through n
// Next calls, and checks addresses, write flags and the generator state.
func (p *appPair) batch(perOp bool, n int) error {
	if cap(p.got) < n {
		p.got, p.want = make([]sim.Req, n), make([]sim.Req, n)
	}
	got, want := p.got[:n], p.want[:n]
	if perOp {
		for i := range got {
			got[i].V, got[i].Write = p.app.Next()
			want[i].V, want[i].Write = p.ref.Next()
		}
	} else {
		p.app.NextBatch(got)
		p.ref.NextBatch(want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s op %d: got %v write=%v, reference %v write=%v",
				p.app.Name(), p.ops+i, got[i].V, got[i].Write, want[i].V, want[i].Write)
		}
	}
	p.ops += n
	if *p.app.r != *p.ref.r {
		return fmt.Errorf("%s after op %d: generator state differs from the reference", p.app.Name(), p.ops)
	}
	return nil
}

// tick runs both apps' time events at now.
func (p *appPair) tick(now int64) error {
	if err := p.app.Tick(p.m, now); err != nil {
		return err
	}
	if err := p.ref.Tick(p.mRef, now); err != nil {
		return err
	}
	if p.app.Rotations() != p.ref.rotations || p.app.growthN != p.ref.growthN {
		return fmt.Errorf("%s at %d ns: %d rotations, %d growths; reference %d, %d",
			p.app.Name(), now, p.app.Rotations(), p.app.growthN, p.ref.rotations, p.ref.growthN)
	}
	return nil
}

// TestAppMatchesRef replays every named spec at the tiny and bench
// footprint divisors, seeds 1 and 2, against the reference request path:
// batches and per-op draws interleaved with ticks that run every growth
// chunk and at least one rotation of the rotating specs.
func TestAppMatchesRef(t *testing.T) {
	rounds := 48
	if testing.Short() {
		rounds = 12
	}
	for _, name := range Names() {
		for _, scale := range []uint64{256, 64} {
			for seed := uint64(1); seed <= 2; seed++ {
				spec, _ := ByName(name)
				// The harness's per-scale transforms: dwell and rotation
				// period (growth keeps its unscaled period here).
				spec = spec.WithDwell(int(scale)).WithTimeDilation(8)
				p := newAppPair(t, spec, scale, seed, 512<<20)
				for i := 0; i < rounds; i++ {
					if err := p.batch(false, 1+i*97%2048); err != nil {
						t.Fatalf("scale %d seed %d: %v", scale, seed, err)
					}
					if err := p.batch(true, 1+i%7); err != nil {
						t.Fatalf("scale %d seed %d: %v", scale, seed, err)
					}
					if err := p.tick(int64(i) * 25e9); err != nil {
						t.Fatalf("scale %d seed %d: %v", scale, seed, err)
					}
				}
				if g := spec.Growth; g != nil && p.app.growthN != g.MaxChunks {
					t.Errorf("%s: %d of %d growth chunks ran", name, p.app.growthN, g.MaxChunks)
				}
			}
		}
	}
}

// fuzzSpec decodes the head of a FuzzAppVsRef input into a spec: one byte
// for the segment count, four per segment (picker kind and parameter, size,
// weight, write fraction), one for growth and rotation. StridedScan strides
// are primes above 13 (or 1), coprime with every page count a spec here can
// reach, where the reference's stride rule and the current one agree.
func fuzzSpec(data []byte) (Spec, []byte, bool) {
	if len(data) < 1 {
		return Spec{}, nil, false
	}
	nseg := 1 + int(data[0])%4
	if len(data) < 2+4*nseg {
		return Spec{}, nil, false
	}
	spec := Spec{Name: "fuzz", ComputeNs: 1000}
	for i := 0; i < nseg; i++ {
		b := data[1+4*i : 5+4*i]
		param := int(b[0] >> 3)
		var p Picker
		switch b[0] % 7 {
		case 0:
			p = Uniform{}
		case 1:
			p = &Zipf{Theta: []float64{0, 0.5, 0.9}[param%3]}
		case 2:
			p = &Hotspot{HotSetFrac: 0.01, HotOpFrac: 0.9}
		case 3:
			p = &Sweep{Dwell: param % 4}
		case 4:
			p = &StridedScan{Stride: []uint64{0, 1, 17, 97, 509}[param%5]}
		case 5:
			p = &Append{Dwell: 1 + param%3}
		case 6:
			p = &HotspotSweep{HotSetFrac: []float64{0.004, 0.05}[param%2], HotOpFrac: 0.9,
				Dwell: 1 + param%4, RotatePeriodNs: int64(1+param%3) * 1e6}
		}
		spec.Segments = append(spec.Segments, SegmentSpec{
			Name:      fmt.Sprintf("s%d", i),
			Bytes:     uint64(1+b[1]%4) * addr.PageSize2M,
			Weight:    float64(b[2]) / 64,
			Picker:    p,
			WriteFrac: float64(b[3]) / 255,
		})
	}
	flags := data[1+4*nseg]
	if flags&1 != 0 {
		spec.Growth = &GrowthSpec{
			PeriodNs:      3e6,
			ChunkBytes:    uint64(1+(flags>>6)%2) * addr.PageSize2M,
			MaxChunks:     3,
			ActiveSegment: fmt.Sprintf("s%d", int(flags>>2)%nseg),
			RetireSegment: fmt.Sprintf("s%d", int(flags>>4)%nseg),
		}
	}
	if flags&2 != 0 {
		spec.Rotate = &RotateSpec{PeriodNs: 4e6,
			SegmentA: "s0", SegmentB: fmt.Sprintf("s%d", int(flags>>3)%nseg)}
	}
	if spec.Validate() != nil {
		return Spec{}, nil, false
	}
	return spec, data[2+4*nseg:], true
}

// FuzzAppVsRef decodes a segment mix (every picker kind, several regions per
// segment through growth) and a schedule of batches, per-op draws and ticks,
// and requires the App and the reference to agree on every address, write
// flag and generator state; seeds are in testdata/fuzz/FuzzAppVsRef.
func FuzzAppVsRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, ops, ok := fuzzSpec(data)
		if !ok {
			return
		}
		p := newAppPair(t, spec, 1, uint64(data[0]), 64<<20)
		var now int64
		for i, op := range ops {
			if i == 64 {
				break
			}
			arg := int(op >> 2)
			var err error
			switch op % 4 {
			case 0:
				err = p.batch(true, 1+arg%8)
			case 1:
				err = p.batch(false, 1+arg*4)
			case 2:
				now += int64(arg) * 1e5
				err = p.tick(now)
			case 3:
				err = p.batch(false, 1+arg*32)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	})
}
