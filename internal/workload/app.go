package workload

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// SegmentSpec declares one memory segment of an application.
type SegmentSpec struct {
	// Name labels the segment (for reports).
	Name string
	// Bytes is the unscaled segment size; the app divides by its scale.
	Bytes uint64
	// Weight is the segment's relative share of the access stream
	// (weights need not sum to 1).
	Weight float64
	// Picker is the intra-segment address distribution.
	Picker Picker
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
	// FileMapped marks page-cache segments (Table 2's file-mapped
	// column). With hugetmpfs these are still huge-page backed.
	FileMapped bool
}

// GrowthSpec makes an app's footprint grow at runtime (Cassandra Memtable
// fill, Spark shuffle spill). Every PeriodNs a chunk of ChunkBytes (scaled)
// is allocated; the previous growth chunk is retired into the cold target
// segment, modeling a Memtable flush whose SSTable is rarely re-read.
type GrowthSpec struct {
	// PeriodNs is the wall time between growth events.
	PeriodNs int64
	// ChunkBytes is the unscaled chunk size.
	ChunkBytes uint64
	// MaxChunks bounds total growth.
	MaxChunks int
	// ActiveSegment is the segment receiving the fresh chunk (its region
	// list is swapped to the new chunk).
	ActiveSegment string
	// RetireSegment accumulates retired chunks.
	RetireSegment string
}

// RotateSpec swaps two segments' traffic weights every period — a
// working-set change (hot data going cold and vice versa) that exercises
// the §3.5 corrector.
type RotateSpec struct {
	// PeriodNs is the time between swaps.
	PeriodNs int64
	// SegmentA and SegmentB are the names of the segments whose weights
	// exchange.
	SegmentA, SegmentB string
}

// Spec declares a full application model.
type Spec struct {
	// Name is the application name as the paper reports it.
	Name string
	// ComputeNs is the per-op computation between accesses; with the
	// machine's thread count this sets the baseline access rate.
	ComputeNs int64
	// Segments composes the footprint. Segment sizes sum to the paper's
	// Table 2 footprint (RSS + file-mapped).
	Segments []SegmentSpec
	// Growth optionally grows the footprint at runtime.
	Growth *GrowthSpec
	// Rotate optionally swaps two segments' traffic periodically.
	Rotate *RotateSpec
}

// Validate rejects inconsistent specs.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec without name")
	}
	if s.ComputeNs < 0 {
		return fmt.Errorf("workload: %s has negative compute", s.Name)
	}
	if len(s.Segments) == 0 {
		return fmt.Errorf("workload: %s has no segments", s.Name)
	}
	totalWeight := 0.0
	for _, seg := range s.Segments {
		if seg.Bytes == 0 {
			return fmt.Errorf("workload: %s segment %q empty", s.Name, seg.Name)
		}
		if seg.Weight < 0 {
			return fmt.Errorf("workload: %s segment %q negative weight", s.Name, seg.Name)
		}
		if seg.WriteFrac < 0 || seg.WriteFrac > 1 {
			return fmt.Errorf("workload: %s segment %q write fraction", s.Name, seg.Name)
		}
		totalWeight += seg.Weight
	}
	if totalWeight <= 0 {
		return fmt.Errorf("workload: %s has no traffic", s.Name)
	}
	if g := s.Growth; g != nil {
		if g.PeriodNs <= 0 || g.ChunkBytes == 0 || g.MaxChunks <= 0 {
			return fmt.Errorf("workload: %s growth spec invalid", s.Name)
		}
		if findSegment(s.Segments, g.ActiveSegment) < 0 {
			return fmt.Errorf("workload: %s growth active segment %q unknown", s.Name, g.ActiveSegment)
		}
		if findSegment(s.Segments, g.RetireSegment) < 0 {
			return fmt.Errorf("workload: %s growth retire segment %q unknown", s.Name, g.RetireSegment)
		}
	}
	if r := s.Rotate; r != nil {
		if r.PeriodNs <= 0 {
			return fmt.Errorf("workload: %s rotate period invalid", s.Name)
		}
		if findSegment(s.Segments, r.SegmentA) < 0 || findSegment(s.Segments, r.SegmentB) < 0 {
			return fmt.Errorf("workload: %s rotate segments unknown", s.Name)
		}
	}
	return nil
}

func findSegment(segs []SegmentSpec, name string) int {
	for i, s := range segs {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// segment is a segment's runtime state.
type segment struct {
	spec SegmentSpec
	span span
}

// setRegions points the segment at regions, rebuilding its span and
// rebinding its picker. Init and growth are the only callers.
func (seg *segment) setRegions(regions []addr.Range) {
	seg.span = newSpan(regions)
	if b, ok := seg.spec.Picker.(binder); ok {
		b.bind(&seg.span)
	}
}

// App is a runnable instance of a Spec. It implements sim.App.
type App struct {
	spec  Spec
	scale uint64
	r     *rng.PCG

	segs []*segment
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

// NewApp instantiates spec with footprints divided by scale (>= 1) and
// deterministic randomness from seed.
func NewApp(spec Spec, scale uint64, seed uint64) (*App, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	// Each app owns fresh picker state: two apps built from one spec (e.g.
	// a baseline and a policy run) must not share sweep positions or
	// rotation salts.
	spec = spec.ClonePickers()
	for _, seg := range spec.Segments {
		validatePicker(seg.Picker, seg.Name)
	}
	a := &App{spec: spec, scale: scale, r: rng.New(seed)}
	return a, nil
}

// Name implements sim.App.
func (a *App) Name() string { return a.spec.Name }

// ComputeNs implements sim.App.
func (a *App) ComputeNs() int64 { return a.spec.ComputeNs }

// Scale returns the footprint divisor.
func (a *App) Scale() uint64 { return a.scale }

// DisableHugePages switches allocation to 4KB mappings (the THP-off
// configuration Table 1 compares against). Must be called before Init.
func (a *App) DisableHugePages() {
	if a.machine != nil {
		panic("workload: DisableHugePages after Init")
	}
	a.fourK = true
}

// scaled rounds bytes/scale up to a whole huge page.
func (a *App) scaled(bytes uint64) uint64 {
	s := bytes / a.scale
	if s < addr.PageSize2M {
		return addr.PageSize2M
	}
	return (s + addr.PageSize2M - 1) / addr.PageSize2M * addr.PageSize2M
}

// Init implements sim.App: allocate every segment (huge-backed — the
// evaluation runs with THP on and hugetmpfs for file pages).
func (a *App) Init(m *sim.Machine) error {
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
		seg := &segment{spec: spec}
		seg.setRegions([]addr.Range{reg})
		a.segs = append(a.segs, seg)
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

// Next draws one access: NextBatch of one, for callers that issue accesses
// by hand.
func (a *App) Next() (addr.Virt, bool) {
	var req [1]sim.Req
	a.NextBatch(req[:])
	return req[0].V, req[0].Write
}

// NextBatch implements sim.App: it generates len(reqs) accesses, each
// a segment draw, the segment's picker and a write draw, so a batch consumes
// the RNG exactly as that many Next calls do.
func (a *App) NextBatch(reqs []sim.Req) int {
	r := a.r
	bounds := a.cum[:len(a.cum)-1]
	total := a.cum[len(a.cum)-1]
	for i := range reqs {
		// The segment is the first whose cumulative weight exceeds x. cum is
		// non-decreasing, so that index is the count of bounds x has passed,
		// which compiles to no data-dependent branch.
		x := r.Float64() * total
		idx := 0
		for _, c := range bounds {
			idx += b2i(x >= c)
		}
		seg := a.segs[idx]
		v := seg.spec.Picker.pick(r, &seg.span)
		reqs[i] = sim.Req{V: v, Write: r.Bool(seg.spec.WriteFrac)}
	}
	return len(reqs)
}

// b2i is 1 for true; the compiler turns it into a flag read, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// pickerTicker is implemented by pickers with time-driven behaviour
// (hot-set rotation).
type pickerTicker interface {
	TickPicker(nowNs int64)
}

// Tick implements sim.App: runs growth, rotation, and picker time events.
func (a *App) Tick(m *sim.Machine, now int64) error {
	for _, seg := range a.segs {
		if pt, ok := seg.spec.Picker.(pickerTicker); ok {
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
		retire.setRegions(append(retire.span.regions, active.span.regions...))
		active.setRegions([]addr.Range{chunk})
		a.growthN++
		a.nextGrow += g.PeriodNs
	}
	return nil
}

// rebuildWeights recomputes the cumulative traffic weights after a change.
func (a *App) rebuildWeights() {
	total := 0.0
	for i, seg := range a.segs {
		total += seg.spec.Weight
		a.cum[i] = total
	}
}

// Rotations reports how many weight swaps have occurred.
func (a *App) Rotations() int { return a.rotations }

// FootprintBytes reports the current mapped footprint split into anonymous
// (RSS) and file-mapped bytes — Table 2's columns.
func (a *App) FootprintBytes() (rss, file uint64) {
	for _, seg := range a.segs {
		var n uint64
		for _, reg := range seg.span.regions {
			n += reg.Size()
		}
		if seg.spec.FileMapped {
			file += n
		} else {
			rss += n
		}
	}
	return rss, file
}

// Regions returns every region the app currently has mapped, across all
// segments — the app's cgroup scope for a per-tenant engine.
func (a *App) Regions() []addr.Range {
	var out []addr.Range
	for _, seg := range a.segs {
		out = append(out, seg.span.regions...)
	}
	return out
}

// SegmentRegions exposes a segment's current regions by name (for tests and
// ground-truth analysis).
func (a *App) SegmentRegions(name string) []addr.Range {
	for _, seg := range a.segs {
		if seg.spec.Name == name {
			return append([]addr.Range(nil), seg.span.regions...)
		}
	}
	return nil
}

// ClonePickers returns a copy of the spec whose segments carry fresh copies
// of every stateful picker, so transforms and runs cannot leak state between
// spec uses (e.g. a baseline run and a policy run built from the same spec
// value).
func (s Spec) ClonePickers() Spec {
	segs := make([]SegmentSpec, len(s.Segments))
	copy(segs, s.Segments)
	for i := range segs {
		switch p := segs[i].Picker.(type) {
		case *Zipf:
			cp := *p
			cp.z = nil
			segs[i].Picker = &cp
		case *Hotspot:
			cp := *p
			cp.h = nil
			segs[i].Picker = &cp
		case *Sweep:
			cp := *p
			segs[i].Picker = &cp
		case *StridedScan:
			cp := *p
			segs[i].Picker = &cp
		case *Append:
			cp := *p
			segs[i].Picker = &cp
		case *HotspotSweep:
			cp := *p
			segs[i].Picker = &cp
		}
	}
	s.Segments = segs
	return s
}

// WithDwell rescales the dwell of every sweep-style picker for a footprint
// divisor d: a sweep's revisit period is pages·dwell/rate, so multiplying
// dwell by d/DefaultScale preserves the real system's revisit period under
// scaling (see DESIGN.md). Specs express dwell at DefaultScale. The
// receiver's pickers are cloned, never mutated. Returns the transformed
// copy.
func (s Spec) WithDwell(d int) Spec {
	if d < 1 {
		d = 1
	}
	s = s.ClonePickers()
	rescale := func(dwell int) int {
		if dwell < 1 {
			dwell = 1
		}
		out := dwell * d / DefaultScale
		if out < 1 {
			out = 1
		}
		return out
	}
	for _, seg := range s.Segments {
		switch p := seg.Picker.(type) {
		case *Sweep:
			p.Dwell = rescale(p.Dwell)
		case *HotspotSweep:
			p.Dwell = rescale(p.Dwell)
		case *Append:
			p.Dwell = rescale(p.Dwell)
		}
	}
	return s
}

// WithFootprint rescales every segment (and growth chunk) so the spec's
// total unscaled footprint becomes target bytes, preserving each segment's
// relative share. Sizes round up to whole huge pages and never drop below
// one, so a small target skews slightly large rather than producing empty
// segments (Validate would reject those). target == 0 returns the spec
// unchanged — the "no override" CLI default. The receiver's pickers are
// cloned, never mutated. Returns the transformed copy.
func (s Spec) WithFootprint(target uint64) Spec {
	if target == 0 {
		return s
	}
	s = s.ClonePickers()
	var total uint64
	for _, seg := range s.Segments {
		total += seg.Bytes
	}
	if total == 0 {
		return s
	}
	rescale := func(b uint64) uint64 {
		nb := uint64(float64(b) * (float64(target) / float64(total)))
		nb = (nb + addr.PageSize2M - 1) / addr.PageSize2M * addr.PageSize2M
		if nb < addr.PageSize2M {
			nb = addr.PageSize2M
		}
		return nb
	}
	for i := range s.Segments {
		s.Segments[i].Bytes = rescale(s.Segments[i].Bytes)
	}
	if s.Growth != nil {
		g := *s.Growth
		g.ChunkBytes = rescale(g.ChunkBytes)
		s.Growth = &g
	}
	return s
}

// WithTimeDilation multiplies picker rotation periods by f, matching the
// harness's rate dilation: hot-set drift keeps the same ratio to the
// workload's access rates (and to idle windows, which also dilate by f).
// The receiver's pickers are cloned, never mutated. Returns the transformed
// copy.
func (s Spec) WithTimeDilation(f int64) Spec {
	if f <= 1 {
		return s
	}
	s = s.ClonePickers()
	for _, seg := range s.Segments {
		if p, ok := seg.Picker.(*HotspotSweep); ok && p.RotatePeriodNs > 0 {
			p.RotatePeriodNs *= f
		}
	}
	return s
}
