package workload

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

const testScale = 256 // tiny footprints for unit tests

func newMachine(t testing.TB) *sim.Machine {
	t.Helper()
	m, err := sim.New(sim.DefaultConfig(512<<20, 512<<20))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pickIn draws one address from p over regions, binding it to them as a
// segment holding those regions would.
func pickIn(p Picker, r *rng.PCG, regions []addr.Range) addr.Virt {
	seg := segment{spec: SegmentSpec{Picker: p}}
	seg.setRegions(regions)
	return p.pick(r, &seg.span)
}

func TestAllSpecsValidate(t *testing.T) {
	specs := append(All(), Aerospike(WriteHeavy), Cassandra(ReadHeavy))
	if len(All()) != 6 {
		t.Fatalf("All returned %d specs, want 6", len(All()))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSpecValidationRejects(t *testing.T) {
	good := Redis()
	cases := map[string]func(*Spec){
		"no name":         func(s *Spec) { s.Name = "" },
		"no segments":     func(s *Spec) { s.Segments = nil },
		"zero bytes":      func(s *Spec) { s.Segments[0].Bytes = 0 },
		"negative weight": func(s *Spec) { s.Segments[0].Weight = -1 },
		"bad write frac":  func(s *Spec) { s.Segments[0].WriteFrac = 2 },
		"no traffic": func(s *Spec) {
			for i := range s.Segments {
				s.Segments[i].Weight = 0
			}
		},
	}
	for name, mutate := range cases {
		s := good
		s.Segments = append([]SegmentSpec(nil), good.Segments...)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Growth validation.
	c := Cassandra(WriteHeavy)
	c.Growth.ActiveSegment = "nope"
	if err := c.Validate(); err == nil {
		t.Error("unknown growth segment accepted")
	}
}

func TestByName(t *testing.T) {
	// Names is what thermostat-sim -list prints: every entry must resolve,
	// and the names the docs tell users to run must be among them.
	names := Names()
	for _, name := range names {
		if _, ok := ByName(name); !ok {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	for _, name := range []string{"redis", "aerospike-write-heavy", "cassandra-read-heavy", "scale-synth"} {
		if !slices.Contains(names, name) {
			t.Errorf("Names() omits %q", name)
		}
	}
	if _, ok := ByName("memcached"); ok {
		t.Error("unknown name resolved")
	}
}

func TestMixWriteFrac(t *testing.T) {
	if ReadHeavy.writeFrac() != 0.05 || WriteHeavy.writeFrac() != 0.95 {
		t.Fatal("mix write fractions wrong")
	}
}

func TestTable2Footprints(t *testing.T) {
	// The models must reproduce Table 2's RSS and file-mapped columns
	// (within huge-page rounding at the chosen scale).
	want := map[string]struct{ rss, file float64 }{ // GB
		"aerospike":           {12.3, 0.005},
		"cassandra":           {8, 4},
		"mysql-tpcc":          {6, 3.5},
		"redis":               {17.2, 0.001},
		"in-memory-analytics": {6.2, 0.001},
		"web-search":          {2.28, 0.086},
	}
	for _, spec := range All() {
		var rss, file uint64
		for _, seg := range spec.Segments {
			if seg.FileMapped {
				file += seg.Bytes
			} else {
				rss += seg.Bytes
			}
		}
		w := want[spec.Name]
		gotRSS := float64(rss) / (1 << 30)
		gotFile := float64(file) / (1 << 30)
		if gotRSS < w.rss*0.9 || gotRSS > w.rss*1.1 {
			t.Errorf("%s RSS = %.2fGB, want ~%.2fGB", spec.Name, gotRSS, w.rss)
		}
		if w.file >= 0.5 && (gotFile < w.file*0.9 || gotFile > w.file*1.1) {
			t.Errorf("%s file = %.2fGB, want ~%.2fGB", spec.Name, gotFile, w.file)
		}
	}
}

func TestAppInitAndAccessInBounds(t *testing.T) {
	for _, spec := range All() {
		m := newMachine(t)
		app, err := NewApp(spec, testScale, 1)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := app.Init(m); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for i := 0; i < 5000; i++ {
			v, _ := app.Next()
			if _, err := m.Access(v, false); err != nil {
				t.Fatalf("%s access %d: %v", spec.Name, i, err)
			}
		}
	}
}

func TestAppDoubleInitFails(t *testing.T) {
	m := newMachine(t)
	app, err := NewApp(Redis(), testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err == nil {
		t.Fatal("double init accepted")
	}
}

func TestSegmentTrafficShares(t *testing.T) {
	// Drawn traffic must match segment weights.
	m := newMachine(t)
	app, err := NewApp(MySQLTPCC(), testScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	lineitem := app.SegmentRegions("lineitem")[0]
	hot := app.SegmentRegions("hot-tables")[0]
	var nLine, nHot, total int
	for i := 0; i < 200000; i++ {
		v, _ := app.Next()
		if lineitem.Contains(v) {
			nLine++
		}
		if hot.Contains(v) {
			nHot++
		}
		total++
	}
	fLine := float64(nLine) / float64(total)
	fHot := float64(nHot) / float64(total)
	if fLine > 0.01 {
		t.Errorf("lineitem traffic share = %v, want ~0.002", fLine)
	}
	if fHot < 0.33 || fHot > 0.47 {
		t.Errorf("hot-tables traffic share = %v, want ~0.40", fHot)
	}
}

func TestGrowthRetiresChunks(t *testing.T) {
	m := newMachine(t)
	app, err := NewApp(Cassandra(WriteHeavy), testScale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	rss0, file0 := app.FootprintBytes()
	// Drive growth ticks past several periods.
	g := app.spec.Growth
	for i := int64(1); i <= int64(g.MaxChunks)+2; i++ {
		if err := app.Tick(m, i*g.PeriodNs); err != nil {
			t.Fatal(err)
		}
	}
	rss1, file1 := app.FootprintBytes()
	if rss1 <= rss0 {
		t.Fatalf("RSS did not grow: %d -> %d", rss0, rss1)
	}
	if file1 != file0 {
		t.Fatal("file-mapped bytes changed during growth")
	}
	wantChunks := g.MaxChunks
	if got := len(app.SegmentRegions("flushed")); got != 1+wantChunks {
		t.Fatalf("flushed regions = %d, want %d", got, 1+wantChunks)
	}
	if got := len(app.SegmentRegions("memtable")); got != 1 {
		t.Fatalf("memtable regions = %d, want 1", got)
	}
	// Growth is capped.
	if err := app.Tick(m, 100*g.PeriodNs); err != nil {
		t.Fatal(err)
	}
	rss2, _ := app.FootprintBytes()
	if rss2 != rss1 {
		t.Fatal("growth exceeded MaxChunks")
	}
}

func TestRedisHotspotSweepShape(t *testing.T) {
	// 90% of traffic must land on the hot set; the rest must cover the
	// keyspace cyclically.
	m := newMachine(t)
	app, err := NewApp(Redis(), testScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	keyspace := app.SegmentRegions("keyspace")[0]
	picker := Redis().Segments[0].Picker.(*HotspotSweep)
	hotSet := picker.HotPages(keyspace.Pages4K())
	hot := 0
	touched2M := map[uint64]bool{}
	const iters = 400000
	for i := 0; i < iters; i++ {
		v, _ := app.Next()
		if !keyspace.Contains(v) {
			continue
		}
		pageIdx := uint64(v-keyspace.Start) / addr.PageSize4K
		if hotSet[pageIdx] {
			hot++
		} else {
			touched2M[uint64(v.PageNum2M())] = true
		}
	}
	frac := float64(hot) / iters
	if frac < 0.85 || frac > 0.96 {
		t.Errorf("hot traffic share = %v, want ~0.90", frac)
	}
	// The sweep advances through distinct 2MB pages at the dwell-scaled
	// pace: ~10% of 400K picks / dwell 96 ≈ 400 4KB pages.
	if len(touched2M) < 1 {
		t.Errorf("sweep touched only %d huge pages", len(touched2M))
	}
}

func TestSweepCyclesThroughAllPages(t *testing.T) {
	s := &Sweep{Dwell: 2}
	regions := []addr.Range{addr.NewRange(0, 4*addr.PageSize4K)}
	r := rng.New(1)
	seen := map[uint64]int{}
	for i := 0; i < 16; i++ { // two full cycles at dwell 2
		v := pickIn(s, r, regions)
		seen[v.PageNum4K()]++
	}
	if len(seen) != 4 {
		t.Fatalf("sweep covered %d pages, want 4", len(seen))
	}
	for p, n := range seen {
		if n != 4 {
			t.Fatalf("page %d picked %d times, want 4", p, n)
		}
	}
}

func TestAppendPicksOnlyLastRegion(t *testing.T) {
	a := &Append{Dwell: 1}
	regions := []addr.Range{
		addr.NewRange(0, 4*addr.PageSize4K),
		addr.NewRange(addr.Virt2M(5), 2*addr.PageSize4K),
	}
	r := rng.New(2)
	for i := 0; i < 20; i++ {
		v := pickIn(a, r, regions)
		if !regions[1].Contains(v) {
			t.Fatalf("append picked outside last region: %s", v)
		}
	}
}

func TestZipfPickerSkewed(t *testing.T) {
	z := &Zipf{}
	regions := []addr.Range{addr.NewRange(0, 1024*addr.PageSize4K)}
	r := rng.New(3)
	counts := map[uint64]int{}
	const iters = 100000
	for i := 0; i < iters; i++ {
		counts[pickIn(z, r, regions).PageNum4K()]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// Zipfian: the hottest page is far above the uniform expectation.
	if max < 5*iters/1024 {
		t.Fatalf("hottest page got %d draws, want skew", max)
	}
}

// TestNewAppRejectsBadZipfTheta requires a Zipf theta outside [0, 1) to
// fail at NewApp, not at the first draw of a run.
func TestNewAppRejectsBadZipfTheta(t *testing.T) {
	newApp := func(theta float64) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		spec := WebSearch()
		spec.Segments[0].Picker = &Zipf{Theta: theta}
		_, err = NewApp(spec, testScale, 1)
		return err
	}
	for _, theta := range []float64{-0.5, 1, 1.5, math.NaN()} {
		if newApp(theta) == nil {
			t.Errorf("theta %v accepted", theta)
		}
	}
	for _, theta := range []float64{0, 0.5, rng.YCSBTheta} {
		if err := newApp(theta); err != nil {
			t.Errorf("theta %v rejected: %v", theta, err)
		}
	}
}

func TestFootprintBytesSplit(t *testing.T) {
	m := newMachine(t)
	app, err := NewApp(Cassandra(WriteHeavy), testScale, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	rss, file := app.FootprintBytes()
	if rss == 0 || file == 0 {
		t.Fatalf("rss=%d file=%d", rss, file)
	}
	// File segments: sstable-recent + sstable-cold = 4GB/scale, rounded up
	// per segment.
	if file < 4*gib/testScale {
		t.Fatalf("file = %d too small", file)
	}
}

func TestRotationSwapsWeights(t *testing.T) {
	spec := Spec{
		Name:      "rot",
		ComputeNs: 100,
		Segments: []SegmentSpec{
			{Name: "a", Bytes: 4 << 20, Weight: 0.99, Picker: Uniform{}},
			{Name: "b", Bytes: 4 << 20, Weight: 0.01, Picker: Uniform{}},
		},
		Rotate: &RotateSpec{PeriodNs: 1e9, SegmentA: "a", SegmentB: "b"},
	}
	m := newMachine(t)
	app, err := NewApp(spec, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	share := func() float64 {
		a := app.SegmentRegions("a")[0]
		n := 0
		for i := 0; i < 20000; i++ {
			if v, _ := app.Next(); a.Contains(v) {
				n++
			}
		}
		return float64(n) / 20000
	}
	before := share()
	if before < 0.9 {
		t.Fatalf("pre-rotation share = %v", before)
	}
	if err := app.Tick(m, 1e9); err != nil {
		t.Fatal(err)
	}
	if app.Rotations() != 1 {
		t.Fatalf("rotations = %d", app.Rotations())
	}
	after := share()
	if after > 0.1 {
		t.Fatalf("post-rotation share = %v", after)
	}
	// Rotating twice restores the original weights.
	if err := app.Tick(m, 2e9); err != nil {
		t.Fatal(err)
	}
	if s := share(); s < 0.9 {
		t.Fatalf("double-rotation share = %v", s)
	}
}

func TestRotateValidation(t *testing.T) {
	spec := Redis()
	spec.Rotate = &RotateSpec{PeriodNs: 0, SegmentA: "keyspace", SegmentB: "keyspace"}
	if err := spec.Validate(); err == nil {
		t.Fatal("zero rotate period accepted")
	}
	spec.Rotate = &RotateSpec{PeriodNs: 1e9, SegmentA: "nope", SegmentB: "keyspace"}
	if err := spec.Validate(); err == nil {
		t.Fatal("unknown rotate segment accepted")
	}
}

func TestStridedScanCoversAllPagesEvenly(t *testing.T) {
	s := &StridedScan{Stride: 3}
	regions := []addr.Range{addr.NewRange(0, 10*addr.PageSize4K)}
	r := rng.New(4)
	seen := map[uint64]int{}
	for i := 0; i < 30; i++ { // three full passes at stride 3 over 10 pages
		seen[pickIn(s, r, regions).PageNum4K()]++
	}
	if len(seen) != 10 {
		t.Fatalf("strided scan covered %d pages, want 10", len(seen))
	}
	for p, n := range seen {
		if n != 3 {
			t.Fatalf("page %d touched %d times, want 3", p, n)
		}
	}
}

func TestStridedScanAdjustsDegenerateStride(t *testing.T) {
	// Stride dividing the page count would orbit a subset; the picker
	// must adjust.
	s := &StridedScan{Stride: 4}
	regions := []addr.Range{addr.NewRange(0, 8*addr.PageSize4K)}
	r := rng.New(5)
	seen := map[uint64]bool{}
	for i := 0; i < 64; i++ {
		seen[pickIn(s, r, regions).PageNum4K()] = true
	}
	if len(seen) != 8 {
		t.Fatalf("degenerate stride covered %d pages, want 8", len(seen))
	}
}

// TestStridedScanCoprimeStride: a stride that shares a factor with the page
// count without dividing it (6 over 8 pages; the spec's 97 over 97·512,
// which a divides-only adjustment lowers to 96) must still visit every page
// once per pass.
func TestStridedScanCoprimeStride(t *testing.T) {
	for _, c := range []struct{ stride, pages uint64 }{{6, 8}, {97, 97 * 512}} {
		s := &StridedScan{Stride: c.stride}
		regions := []addr.Range{addr.NewRange(0, c.pages*addr.PageSize4K)}
		r := rng.New(6)
		seen := make(map[uint64]bool, c.pages)
		for i := uint64(0); i < c.pages; i++ {
			seen[pickIn(s, r, regions).PageNum4K()] = true
		}
		if uint64(len(seen)) != c.pages {
			t.Errorf("stride %d over %d pages touched %d pages in one pass", c.stride, c.pages, len(seen))
		}
	}
}

func TestHotspotSweepRotation(t *testing.T) {
	p := &HotspotSweep{HotSetFrac: 0.01, HotOpFrac: 1, RotatePeriodNs: 1e9}
	before := p.HotPages(10000)
	// First tick arms the schedule; the second crosses it.
	p.TickPicker(0)
	p.TickPicker(5e8)
	same := p.HotPages(10000)
	if len(same) != len(before) {
		t.Fatal("hot set size changed without rotation")
	}
	for k := range before {
		if !same[k] {
			t.Fatal("hot set drifted before the rotation period")
		}
	}
	p.TickPicker(2e9)
	after := p.HotPages(10000)
	moved := 0
	for k := range before {
		if !after[k] {
			moved++
		}
	}
	if moved < len(before)/2 {
		t.Fatalf("only %d/%d hot pages moved after rotation", moved, len(before))
	}
	// Draws follow the rotated set.
	r := rng.New(3)
	regions := []addr.Range{addr.NewRange(0, 10000*addr.PageSize4K)}
	for i := 0; i < 1000; i++ {
		v := pickIn(p, r, regions)
		if !after[v.PageNum4K()] {
			t.Fatalf("pick %d outside rotated hot set", i)
		}
	}
}

func TestHotspotSweepNoRotationByDefault(t *testing.T) {
	p := &HotspotSweep{HotSetFrac: 0.01, HotOpFrac: 1}
	before := p.HotPages(1000)
	p.TickPicker(0)
	p.TickPicker(1e18)
	after := p.HotPages(1000)
	for k := range before {
		if !after[k] {
			t.Fatal("hot set moved without a rotation period")
		}
	}
}

func TestWithDwellRescalesProportionally(t *testing.T) {
	spec := Redis() // keyspace dwell = 6*DefaultScale
	spec = spec.WithDwell(64)
	p := spec.Segments[0].Picker.(*HotspotSweep)
	if p.Dwell != 6*64 {
		t.Fatalf("dwell = %d, want %d", p.Dwell, 6*64)
	}
	// Degenerate divisor clamps to >= 1.
	spec2 := MySQLTPCC().WithDwell(0)
	if sw, ok := spec2.Segments[0].Picker.(*Sweep); ok && sw.Dwell < 1 {
		t.Fatalf("dwell = %d", sw.Dwell)
	}
}

func TestWithTimeDilation(t *testing.T) {
	spec := Redis()
	spec = spec.WithTimeDilation(4)
	p := spec.Segments[0].Picker.(*HotspotSweep)
	if p.RotatePeriodNs != 480e9 {
		t.Fatalf("rotate period = %d", p.RotatePeriodNs)
	}
	// f <= 1 is a no-op.
	spec2 := Redis().WithTimeDilation(1)
	if spec2.Segments[0].Picker.(*HotspotSweep).RotatePeriodNs != 120e9 {
		t.Fatal("dilation 1 changed the period")
	}
}

func TestAppRegions(t *testing.T) {
	m := newMachine(t)
	app, err := NewApp(WebSearch(), testScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if app.Regions() != nil {
		t.Fatal("regions before init")
	}
	if err := app.Init(m); err != nil {
		t.Fatal(err)
	}
	regions := app.Regions()
	if len(regions) != len(WebSearch().Segments) {
		t.Fatalf("regions = %d", len(regions))
	}
	var total uint64
	for _, r := range regions {
		total += r.Size()
	}
	rss, file := app.FootprintBytes()
	if total != rss+file {
		t.Fatalf("regions total %d != footprint %d", total, rss+file)
	}
}

func TestWithFootprint(t *testing.T) {
	spec := ScaleSynthetic()
	var orig uint64
	for _, seg := range spec.Segments {
		orig += seg.Bytes
	}
	target := uint64(16) << 30
	scaled := spec.WithFootprint(target)
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	for i, seg := range scaled.Segments {
		if seg.Bytes%addr.PageSize2M != 0 {
			t.Fatalf("segment %q not huge-page aligned: %d", seg.Name, seg.Bytes)
		}
		if seg.Bytes < addr.PageSize2M {
			t.Fatalf("segment %q below one huge page", seg.Name)
		}
		// Shares are preserved within rounding: each segment lands within
		// one huge page of its proportional size.
		want := uint64(float64(spec.Segments[i].Bytes) * float64(target) / float64(orig))
		if diff := int64(seg.Bytes) - int64(want); diff < 0 || diff > int64(addr.PageSize2M) {
			t.Fatalf("segment %q = %d, want ~%d", seg.Name, seg.Bytes, want)
		}
		total += seg.Bytes
	}
	// Total within one huge page per segment of the target.
	slack := uint64(len(scaled.Segments)) * addr.PageSize2M
	if total < target || total > target+slack {
		t.Fatalf("total = %d, want within [%d, %d]", total, target, target+slack)
	}
	// The receiver is untouched.
	if spec.Segments[0].Bytes != ScaleSynthetic().Segments[0].Bytes {
		t.Fatal("WithFootprint mutated the receiver")
	}
	// target 0 is a no-op.
	same := spec.WithFootprint(0)
	if same.Segments[0].Bytes != spec.Segments[0].Bytes {
		t.Fatal("WithFootprint(0) changed sizes")
	}
}

func TestWithFootprintGrowth(t *testing.T) {
	spec := Cassandra(WriteHeavy)
	scaled := spec.WithFootprint(32 << 30)
	if scaled.Growth == nil {
		t.Fatal("growth spec dropped")
	}
	if scaled.Growth.ChunkBytes <= spec.Growth.ChunkBytes {
		t.Fatalf("growth chunk not scaled up: %d <= %d",
			scaled.Growth.ChunkBytes, spec.Growth.ChunkBytes)
	}
	if scaled.Growth == spec.Growth {
		t.Fatal("growth spec aliased, receiver mutated")
	}
	if scaled.Growth.ChunkBytes%addr.PageSize2M != 0 {
		t.Fatalf("growth chunk unaligned: %d", scaled.Growth.ChunkBytes)
	}
}

func TestWithFootprintTiny(t *testing.T) {
	// A target smaller than one huge page per segment clamps every segment
	// to one huge page instead of producing empty segments.
	scaled := ScaleSynthetic().WithFootprint(1 << 20)
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range scaled.Segments {
		if seg.Bytes != addr.PageSize2M {
			t.Fatalf("segment %q = %d, want one huge page", seg.Name, seg.Bytes)
		}
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{"4096", 4096},
		{"512k", 512 << 10},
		{"512KB", 512 << 10},
		{"1m", 1 << 20},
		{"16MiB", 16 << 20},
		{"1g", 1 << 30},
		{"64GB", 64 << 30},
		{"1t", 1 << 40},
		{"1TiB", 1 << 40},
		{"1.5g", 3 << 29},
		{" 2G ", 2 << 30},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if err != nil {
			t.Fatalf("ParseSize(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Fatalf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "g", "-1g", "0", "1q", "abc"} {
		if _, err := ParseSize(bad); err == nil {
			t.Fatalf("ParseSize(%q) accepted", bad)
		}
	}
}

func TestFormatSize(t *testing.T) {
	cases := []struct {
		in   uint64
		want string
	}{
		{1 << 40, "1T"},
		{64 << 30, "64G"},
		{16 << 20, "16M"},
		{512 << 10, "512K"},
		{3 << 29, "1536M"},
		{3<<29 + 1, "1.5G"},
		{4096, "4K"},
		{123, "123"},
	}
	for _, c := range cases {
		if got := FormatSize(c.in); got != c.want {
			t.Fatalf("FormatSize(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestScaleSynthetic(t *testing.T) {
	spec := ScaleSynthetic()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ByName("scale-synth"); !ok {
		t.Fatal("scale-synth not registered")
	}
	// Not part of the paper's application set.
	for _, s := range All() {
		if s.Name == spec.Name {
			t.Fatal("scale-synth leaked into All()")
		}
	}
}

// appSpecs are the specs the allocation test and the benchmark cover: the
// six paper applications and the scaling workload.
func appSpecs() []Spec { return append(All(), ScaleSynthetic()) }

// TestNextBatchDoesNotAllocate: once every segment has drawn (and built its
// sampler), generating a batch allocates nothing.
func TestNextBatchDoesNotAllocate(t *testing.T) {
	for _, spec := range appSpecs() {
		app, err := NewApp(spec, testScale, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Init(newMachine(t)); err != nil {
			t.Fatal(err)
		}
		reqs := make([]sim.Req, sim.MaxBlockOps)
		for i := 0; i < 32; i++ {
			app.NextBatch(reqs)
		}
		if allocs := testing.AllocsPerRun(20, func() { app.NextBatch(reqs) }); allocs != 0 {
			t.Errorf("%s: %v allocations per batch", spec.Name, allocs)
		}
	}
}

// TestAppsDrawConcurrently: two apps built from one Spec share no mutable
// state, so each may draw on its own goroutine — as every run's Scheduler
// draws blocks ahead on a producer while other runs of the same spec do the
// same — and each still draws exactly the stream of a lone app. Under the
// race detector it also fails on any state the two share.
func TestAppsDrawConcurrently(t *testing.T) {
	t.Parallel()
	const batches = 8
	draw := func(app *App) []sim.Req {
		out := make([]sim.Req, batches*sim.MaxBlockOps)
		for i := 0; i < batches; i++ {
			app.NextBatch(out[i*sim.MaxBlockOps : (i+1)*sim.MaxBlockOps])
		}
		return out
	}
	for _, spec := range appSpecs() {
		apps := make([]*App, 3)
		for i := range apps {
			app, err := NewApp(spec, testScale, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := app.Init(newMachine(t)); err != nil {
				t.Fatal(err)
			}
			apps[i] = app
		}
		want := draw(apps[0])
		got := make([][]sim.Req, 2)
		done := make(chan struct{})
		for i := range got {
			go func() {
				got[i] = draw(apps[i+1])
				done <- struct{}{}
			}()
		}
		<-done
		<-done
		for i := range got {
			if !slices.Equal(got[i], want) {
				t.Errorf("%s: an app drawing beside another of its spec drew a different stream", spec.Name)
			}
		}
	}
}

// BenchmarkAppNextBatch times request generation per draw, in blocks of
// sim.MaxBlockOps, for each app at the bench profile's footprint divisor.
func BenchmarkAppNextBatch(b *testing.B) {
	for _, spec := range appSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			app, err := NewApp(spec.WithDwell(64), 64, 1)
			if err != nil {
				b.Fatal(err)
			}
			if err := app.Init(newMachine(b)); err != nil {
				b.Fatal(err)
			}
			reqs := make([]sim.Req, sim.MaxBlockOps)
			app.NextBatch(reqs)
			b.ResetTimer()
			for done := 0; done < b.N; done += len(reqs) {
				app.NextBatch(reqs[:min(len(reqs), b.N-done)])
			}
		})
	}
}
