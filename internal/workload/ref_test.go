package workload

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// The request path this package shipped before spans, kept as the
// differential oracle for TestAppMatchesRef and FuzzAppVsRef: App and the
// pickers as they were, every draw summing the region list and walking it
// to the page. Names gained a ref prefix, and each segment carries its ref
// picker beside its spec (refSegment.picker), since SegmentSpec.Picker holds
// the current pickers; newRefApp translates one into the other where NewApp
// called ClonePickers. refStridedScan keeps the old stride rule, which
// differs from the current one only for a stride that shares a factor with
// the page count without dividing it.

type refPicker interface {
	Pick(r *rng.PCG, regions []addr.Range) addr.Virt
}

// totalPages4K sums the 4KB page count across regions.
func totalPages4K(regions []addr.Range) uint64 {
	var n uint64
	for _, reg := range regions {
		n += reg.Pages4K()
	}
	return n
}

// pageAt returns the base address of the idx-th 4KB page across regions.
func pageAt(regions []addr.Range, idx uint64) addr.Virt {
	for _, reg := range regions {
		n := reg.Pages4K()
		if idx < n {
			return reg.Start.Base4K() + addr.Virt(idx*addr.PageSize4K)
		}
		idx -= n
	}
	panic("workload: page index out of range")
}

type refUniform struct{}

func (refUniform) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	return pageAt(regions, r.Uint64n(n)) + addr.Virt(r.Uint64n(addr.PageSize4K))
}

type refZipf struct {
	Theta float64

	z *rng.Zipfian
}

func (p *refZipf) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	if p.z == nil || p.z.N() != n {
		theta := p.Theta
		if theta == 0 {
			theta = rng.YCSBTheta
		}
		p.z = rng.NewScrambledZipfian(rng.NewStream(n, 0x5eed), n, theta)
	}
	return pageAt(regions, p.z.Next()) + addr.Virt(r.Uint64n(addr.PageSize4K))
}

type refHotspot struct {
	HotSetFrac float64
	HotOpFrac  float64

	h *rng.Hotspot
}

func (p *refHotspot) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	if p.h == nil || p.h.N() != n {
		p.h = rng.NewHotspot(rng.NewStream(n, 0x407), n, p.HotSetFrac, p.HotOpFrac)
	}
	return pageAt(regions, p.h.Next()) + addr.Virt(r.Uint64n(addr.PageSize4K))
}

type refSweep struct {
	Dwell int

	pos   uint64
	count int
}

func (p *refSweep) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	dwell := p.Dwell
	if dwell < 1 {
		dwell = 1
	}
	if p.pos >= n {
		p.pos = 0
	}
	v := pageAt(regions, p.pos) + addr.Virt(r.Uint64n(addr.PageSize4K))
	p.count++
	if p.count >= dwell {
		p.count = 0
		p.pos++
		if p.pos >= n {
			p.pos = 0
		}
	}
	return v
}

type refStridedScan struct {
	Stride uint64

	pos uint64
}

func (p *refStridedScan) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	stride := p.Stride
	if stride == 0 {
		stride = 97
	}
	for n%stride == 0 && stride > 1 {
		stride--
	}
	p.pos = (p.pos + stride) % n
	return pageAt(regions, p.pos) + addr.Virt(r.Uint64n(addr.PageSize4K))
}

type refAppend struct {
	Dwell int

	sweep refSweep
}

func (p *refAppend) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	p.sweep.Dwell = p.Dwell
	// Appending only touches the most recent region.
	return p.sweep.Pick(r, regions[len(regions)-1:])
}

type refHotspotSweep struct {
	HotSetFrac     float64
	HotOpFrac      float64
	Dwell          int
	RotatePeriodNs int64

	salt       uint64
	nextRotate int64
	sweep      refSweep
}

func (p *refHotspotSweep) TickPicker(nowNs int64) {
	if p.RotatePeriodNs <= 0 {
		return
	}
	if p.nextRotate == 0 {
		p.nextRotate = nowNs + p.RotatePeriodNs
		return
	}
	for nowNs >= p.nextRotate {
		p.salt = rng.Hash64(p.salt + 1)
		p.nextRotate += p.RotatePeriodNs
	}
}

func (p *refHotspotSweep) Pick(r *rng.PCG, regions []addr.Range) addr.Virt {
	n := totalPages4K(regions)
	if r.Float64() < p.HotOpFrac {
		hot := uint64(float64(n) * p.HotSetFrac)
		if hot == 0 {
			hot = 1
		}
		// Hash-scatter the hot set across the keyspace; the salt changes
		// on rotation, moving popularity to a fresh key set.
		page := rng.Hash64(r.Uint64n(hot)+0x9e3779b9+p.salt) % n
		return pageAt(regions, page) + addr.Virt(r.Uint64n(addr.PageSize4K))
	}
	p.sweep.Dwell = p.Dwell
	return p.sweep.Pick(r, regions)
}

// refPickerOf returns a fresh ref picker configured like p.
func refPickerOf(p Picker) refPicker {
	switch p := p.(type) {
	case Uniform:
		return refUniform{}
	case *Zipf:
		return &refZipf{Theta: p.Theta}
	case *Hotspot:
		return &refHotspot{HotSetFrac: p.HotSetFrac, HotOpFrac: p.HotOpFrac}
	case *Sweep:
		return &refSweep{Dwell: p.Dwell}
	case *StridedScan:
		return &refStridedScan{Stride: p.Stride}
	case *Append:
		return &refAppend{Dwell: p.Dwell}
	case *HotspotSweep:
		return &refHotspotSweep{HotSetFrac: p.HotSetFrac, HotOpFrac: p.HotOpFrac,
			Dwell: p.Dwell, RotatePeriodNs: p.RotatePeriodNs}
	}
	panic(fmt.Sprintf("workload: no ref picker for %T", p))
}

type refSegment struct {
	spec    SegmentSpec
	picker  refPicker
	regions []addr.Range
}

type refApp struct {
	spec  Spec
	scale uint64
	r     *rng.PCG

	segs []*refSegment
	cum  []float64 // cumulative weights for traffic selection

	machine   *sim.Machine
	fourK     bool
	growthN   int
	nextGrow  int64
	growSize  uint64
	activeIdx int
	retireIdx int

	nextRotate int64
	rotations  int
}

func newRefApp(spec Spec, scale uint64, seed uint64) (*refApp, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	a := &refApp{spec: spec, scale: scale, r: rng.New(seed)}
	return a, nil
}

func (a *refApp) scaled(bytes uint64) uint64 {
	s := bytes / a.scale
	if s < addr.PageSize2M {
		return addr.PageSize2M
	}
	return (s + addr.PageSize2M - 1) / addr.PageSize2M * addr.PageSize2M
}

func (a *refApp) Init(m *sim.Machine) error {
	if a.machine != nil {
		return fmt.Errorf("workload: %s initialized twice", a.spec.Name)
	}
	a.machine = m
	a.segs = nil
	a.cum = nil
	total := 0.0
	for _, spec := range a.spec.Segments {
		reg, err := m.AllocRegion(a.scaled(spec.Bytes), !a.fourK)
		if err != nil {
			return fmt.Errorf("workload: %s segment %q: %w", a.spec.Name, spec.Name, err)
		}
		a.segs = append(a.segs, &refSegment{spec: spec, picker: refPickerOf(spec.Picker), regions: []addr.Range{reg}})
		total += spec.Weight
		a.cum = append(a.cum, total)
	}
	if g := a.spec.Growth; g != nil {
		a.growSize = a.scaled(g.ChunkBytes)
		a.nextGrow = m.Clock() + g.PeriodNs
		a.activeIdx = findSegment(a.spec.Segments, g.ActiveSegment)
		a.retireIdx = findSegment(a.spec.Segments, g.RetireSegment)
	}
	if r := a.spec.Rotate; r != nil {
		a.nextRotate = m.Clock() + r.PeriodNs
	}
	return nil
}

func (a *refApp) Next() (addr.Virt, bool) {
	x := a.r.Float64() * a.cum[len(a.cum)-1]
	idx := 0
	for idx < len(a.cum)-1 && x >= a.cum[idx] {
		idx++
	}
	seg := a.segs[idx]
	v := seg.picker.Pick(a.r, seg.regions)
	return v, a.r.Bool(seg.spec.WriteFrac)
}

func (a *refApp) NextBatch(reqs []sim.Req) int {
	r := a.r
	cum := a.cum
	total := cum[len(cum)-1]
	for i := range reqs {
		x := r.Float64() * total
		idx := 0
		for idx < len(cum)-1 && x >= cum[idx] {
			idx++
		}
		seg := a.segs[idx]
		v := seg.picker.Pick(r, seg.regions)
		reqs[i] = sim.Req{V: v, Write: r.Bool(seg.spec.WriteFrac)}
	}
	return len(reqs)
}

func (a *refApp) Tick(m *sim.Machine, now int64) error {
	for _, seg := range a.segs {
		if pt, ok := seg.picker.(pickerTicker); ok {
			pt.TickPicker(now)
		}
	}
	if r := a.spec.Rotate; r != nil {
		for now >= a.nextRotate {
			ia := findSegment(a.spec.Segments, r.SegmentA)
			ib := findSegment(a.spec.Segments, r.SegmentB)
			a.segs[ia].spec.Weight, a.segs[ib].spec.Weight =
				a.segs[ib].spec.Weight, a.segs[ia].spec.Weight
			a.rebuildWeights()
			a.rotations++
			a.nextRotate += r.PeriodNs
		}
	}
	g := a.spec.Growth
	if g == nil || a.growthN >= g.MaxChunks {
		return nil
	}
	for now >= a.nextGrow && a.growthN < g.MaxChunks {
		chunk, err := m.AllocRegion(a.growSize, !a.fourK)
		if err != nil {
			// Out of memory: stop growing (a real system would flush
			// to disk); not an error for the workload.
			a.growthN = g.MaxChunks
			return nil
		}
		active := a.segs[a.activeIdx]
		retire := a.segs[a.retireIdx]
		// Retire the active segment's current regions, switch writes to
		// the fresh chunk.
		retire.regions = append(retire.regions, active.regions...)
		active.regions = []addr.Range{chunk}
		a.growthN++
		a.nextGrow += g.PeriodNs
	}
	return nil
}

func (a *refApp) rebuildWeights() {
	total := 0.0
	for i, seg := range a.segs {
		total += seg.spec.Weight
		a.cum[i] = total
	}
}
