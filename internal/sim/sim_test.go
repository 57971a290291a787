package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cache"
	"thermostat/internal/mem"
	"thermostat/internal/rng"
	"thermostat/internal/stats"
	"thermostat/internal/walk"
)

func newMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig(64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllocRegionHuge(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(4<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Size() != 4<<20 {
		t.Fatalf("size = %d", r.Size())
	}
	if m.PageTable().Count2M() != 2 || m.PageTable().Count4K() != 0 {
		t.Fatalf("counts %d/%d", m.PageTable().Count2M(), m.PageTable().Count4K())
	}
	// Regions don't overlap.
	r2, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start < r2.End && r2.Start < r.End {
		t.Fatal("regions overlap")
	}
}

func TestAllocRegion4K(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(3*addr.PageSize4K, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.PageTable().Count4K() != 3 {
		t.Fatalf("Count4K = %d", m.PageTable().Count4K())
	}
	// Next region still 2MB aligned.
	r2, _ := m.AllocRegion(2<<20, true)
	if r2.Start.Base2M() != r2.Start {
		t.Fatal("bump pointer lost alignment")
	}
	_ = r
}

func TestAllocRegionErrors(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	if _, err := m.AllocRegion(0, true); err == nil {
		t.Fatal("zero-size accepted")
	}
	if _, err := m.AllocRegion(1<<30, true); err == nil {
		t.Fatal("over-capacity alloc accepted")
	}
}

func TestAccessLatencyPaths(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Start

	// First access: TLB miss -> nested 2M/2M walk (15 steps) + LLC miss +
	// DRAM fill.
	lat1, err := m.Access(v, false)
	if err != nil {
		t.Fatal(err)
	}
	wm, _ := walk.NewModel(m.Config().Walk)
	walkLat := wm.Latency(true, walk.Depth2M, walk.Depth2M)
	dram := m.Memory().Tier(mem.Fast).Spec().ReadLatency
	want1 := walkLat + dram
	if lat1 != want1 {
		t.Fatalf("cold access lat = %d, want %d", lat1, want1)
	}

	// Second access to the same line: TLB hit + LLC hit.
	lat2, err := m.Access(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if want2 := int64(tlbHitNs + llcHitNs); lat2 != want2 {
		t.Fatalf("warm access lat = %d, want %d", lat2, want2)
	}
	if lat2 >= lat1 {
		t.Fatal("warm access not faster than cold")
	}
}

func TestAccessUnmappedFails(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	if _, err := m.Access(addr.Virt(0xdead000), false); err == nil {
		t.Fatal("unmapped access succeeded")
	}
}

func TestPoisonedAccessChargesFaultAndCounts(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Start
	if err := m.Trap().Poison(v, m.VPID()); err != nil {
		t.Fatal(err)
	}
	lat, err := m.Access(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if lat < m.Config().FaultLatencyNs {
		t.Fatalf("poisoned access lat = %d, want >= fault latency", lat)
	}
	if m.Trap().Count(v) != 1 {
		t.Fatal("fault not counted")
	}
	// Transient TLB entry: next access is fast and uncounted.
	lat2, err := m.Access(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if lat2 >= m.Config().FaultLatencyNs {
		t.Fatalf("TLB-resident poisoned access lat = %d", lat2)
	}
	if m.Trap().Count(v) != 1 {
		t.Fatal("TLB-resident access should not fault")
	}
}

func TestSlowAccessCountingAndEmulation(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Start
	if _, err := m.Migrator().MoveHuge(v, mem.Slow, m.VPID(), mem.Demotion); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(v, false); err != nil {
		t.Fatal(err)
	}
	if m.Metrics().SlowAccesses != 1 {
		t.Fatalf("SlowAccesses = %d", m.Metrics().SlowAccesses)
	}
	// In EmulatedFault mode an unpoisoned slow page costs DRAM speed (the
	// emulation latency comes from poison faults, which the policy arms).
	lat, _ := m.Access(v, false)
	if lat > 2*llcHitNs+tlbHitNs {
		t.Fatalf("emulated-mode slow access lat = %d, want DRAM-class", lat)
	}
}

func TestDeviceModeChargesSlowLatency(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(64<<20, 64<<20)
	cfg.Mode = Device
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	v := r.Start
	if _, err := m.Migrator().MoveHuge(v, mem.Slow, m.VPID(), mem.Demotion); err != nil {
		t.Fatal(err)
	}
	lat, err := m.Access(v, false)
	if err != nil {
		t.Fatal(err)
	}
	if lat < m.Memory().Tier(mem.Slow).Spec().ReadLatency {
		t.Fatalf("device-mode slow access lat = %d, want >= 1000", lat)
	}
}

func TestClockAdvancesByLatencyOverThreads(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	before := m.Clock()
	lat, err := m.Access(r.Start, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Clock() - before; got != lat/threads {
		t.Fatalf("clock advanced %d, want %d", got, lat/threads)
	}
	m.AdvanceClock(400)
	if got := m.Clock() - before; got != lat/threads+400/threads {
		t.Fatalf("AdvanceClock wrong: %d", got)
	}
	// Idle time is not compute: AdvanceClockTo lands on its target exactly
	// whatever the thread count, and never moves the clock back.
	at := m.Clock()
	m.AdvanceClockTo(at + 3)
	m.AdvanceClockTo(at - 50)
	if got := m.Clock(); got != at+3 {
		t.Fatalf("AdvanceClockTo: clock %d, want %d", got, at+3)
	}
}

// uniformApp is a minimal closed-loop App for runner tests.
type uniformApp struct {
	name    string
	size    uint64
	huge    bool
	r       *rng.PCG
	region  addr.Range
	compute int64
	ticks   int
	// maxBatch is the largest NextBatch drawn, so a differential can tell
	// blocks of N from blocks of one.
	maxBatch int
}

func (a *uniformApp) Name() string { return a.name }
func (a *uniformApp) Init(m *Machine) error {
	reg, err := m.AllocRegion(a.size, a.huge)
	a.region = reg
	return err
}
func (a *uniformApp) NextBatch(reqs []Req) int {
	a.maxBatch = max(a.maxBatch, len(reqs))
	for i := range reqs {
		off := a.r.Uint64n(a.region.Size())
		reqs[i] = Req{V: a.region.Start + addr.Virt(off), Write: a.r.Bool(0.1)}
	}
	return len(reqs)
}
func (a *uniformApp) ComputeNs() int64           { return a.compute }
func (a *uniformApp) Tick(*Machine, int64) error { a.ticks++; return nil }

func TestRunBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	m := newMachine(t)
	app := &uniformApp{name: "uniform", size: 8 << 20, huge: true, r: rng.New(1), compute: 500}
	res, err := Run(m, app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 1e9, WindowNs: 1e8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops executed")
	}
	if res.DurationNs < 1e9 {
		t.Fatalf("run too short: %d", res.DurationNs)
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
	if app.ticks == 0 {
		t.Fatal("app.Tick never called")
	}
	if res.SlowRate.Len() < 9 {
		t.Fatalf("windows sampled = %d", res.SlowRate.Len())
	}
	// Nothing demoted under the null policy.
	if res.FinalFootprint.Cold() != 0 {
		t.Fatal("null policy produced cold bytes")
	}
	if res.FinalFootprint.Hot2M != 8<<20 {
		t.Fatalf("hot 2M bytes = %d", res.FinalFootprint.Hot2M)
	}
	if res.Metrics.SlowAccesses != 0 {
		t.Fatal("slow accesses under null policy")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	app := &uniformApp{name: "u", size: 2 << 20, huge: true, r: rng.New(3)}
	if _, err := Run(m, app, NullPolicy{}, RunConfig{}); err == nil {
		t.Fatal("zero duration accepted")
	}
}

func TestSlowdownMeasurement(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// Identical app on two machines; on the second, half the footprint is
	// demoted and poisoned (the emulated slow memory). Throughput must
	// drop, and Slowdown must report it.
	mkRes := func(demote bool) *RunResult {
		cfg := DefaultConfig(64<<20, 64<<20)
		// Scale TLB reach down with the scaled footprint; otherwise every
		// transient post-fault translation stays resident and the
		// emulated slow latency never recurs (see DESIGN.md on scaling).
		cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 4
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		app := &uniformApp{name: "u", size: 16 << 20, huge: true, r: rng.New(7), compute: 200}
		if err := app.Init(m); err != nil {
			t.Fatal(err)
		}
		if demote {
			// Demote and poison the second half of the region.
			for v := app.region.Start + 8<<20; v < app.region.End; v += addr.Virt(addr.PageSize2M) {
				if _, err := m.Migrator().MoveHuge(v, mem.Slow, m.VPID(), mem.Demotion); err != nil {
					t.Fatal(err)
				}
				if err := m.Trap().Poison(v, m.VPID()); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Drive directly (app already initialized): reuse the loop via a
		// fresh wrapper app that shares the region.
		res := &RunResult{}
		start := m.Clock()
		var req [1]Req
		for m.Clock()-start < 2e8 {
			app.NextBatch(req[:])
			if _, err := m.Access(req[0].V, req[0].Write); err != nil {
				t.Fatal(err)
			}
			m.AdvanceClock(app.ComputeNs())
			res.Ops++
		}
		res.DurationNs = m.Clock() - start
		res.Throughput = float64(res.Ops) * 1e9 / float64(res.DurationNs)
		return res
	}
	base := mkRes(false)
	slow := mkRes(true)
	sd := Slowdown(base, slow)
	if sd <= 0.05 {
		t.Fatalf("slowdown = %v, want substantial (half footprint emulated-slow)", sd)
	}
}

func TestDaemonAccounting(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	m.ChargeDaemon(12345)
	if m.DaemonNs() != 12345 {
		t.Fatal("daemon time lost")
	}
}

func TestFootprintHelpers(t *testing.T) {
	t.Parallel()
	f := Footprint{Hot2M: 100, Hot4K: 50, Cold2M: 30, Cold4K: 20}
	if f.Total() != 200 || f.Cold() != 50 {
		t.Fatal("totals wrong")
	}
	if f.ColdFraction() != 0.25 {
		t.Fatalf("ColdFraction = %v", f.ColdFraction())
	}
	if (Footprint{}).ColdFraction() != 0 {
		t.Fatal("empty ColdFraction should be 0")
	}
}

func TestVerifyCleanMachine(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	if _, err := m.AllocRegion(8<<20, true); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocRegion(1<<20, false); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Split + demote + promote churn must preserve the invariants.
	base := addr.Virt(1) << 40
	if err := m.PageTable().Split(base); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := m.PageTable().Collapse(base); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Demote(base); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Promote(base); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesDoubleMapping(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	e, _, _ := m.PageTable().Lookup(r.Start)
	// Map a second virtual page onto the same frame behind the
	// allocator's back.
	if err := m.PageTable().Map2M(addr.Virt2M(999999), e.Frame, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Verify(); err == nil {
		t.Fatal("double mapping not detected")
	}
}

// errPolicy fails on its nth tick.
type errPolicy struct {
	NullPolicy
	failAt int
	ticks  int
}

func (p *errPolicy) IntervalNs() int64 { return 1e8 }
func (p *errPolicy) Tick(*Machine, int64) error {
	p.ticks++
	if p.ticks >= p.failAt {
		return errSentinel
	}
	return nil
}

var errSentinel = errorsNew("policy boom")

func errorsNew(s string) error { return &simTestErr{s} }

type simTestErr struct{ s string }

func (e *simTestErr) Error() string { return e.s }

func TestRunPropagatesPolicyError(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	app := &uniformApp{name: "u", size: 2 << 20, huge: true, r: rng.New(4), compute: 500}
	_, err := Run(m, app, &errPolicy{failAt: 2}, RunConfig{DurationNs: 1e9})
	if err == nil {
		t.Fatal("policy error swallowed")
	}
}

// errApp fails on Tick.
type errApp struct {
	uniformApp
}

func (a *errApp) Tick(*Machine, int64) error { return errSentinel }

func TestRunPropagatesAppTickError(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	app := &errApp{uniformApp{name: "u", size: 2 << 20, huge: true, r: rng.New(5), compute: 500}}
	_, err := Run(m, app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 1e9})
	if err == nil {
		t.Fatal("app tick error swallowed")
	}
}

func TestMeanColdFraction(t *testing.T) {
	t.Parallel()
	r := &RunResult{
		Cold2M: statsSeries("c2", 0, 100, 100),
		Cold4K: statsSeries("c4", 0, 0, 0),
		Hot2M:  statsSeries("h2", 100, 100, 100),
		Hot4K:  statsSeries("h4", 0, 0, 0),
	}
	// Windows at t=0,1e9,2e9: fractions 0, 0.5, 0.5.
	if got := r.MeanColdFraction(0); got < 0.33 || got > 0.34 {
		t.Fatalf("mean = %v", got)
	}
	if got := r.MeanColdFraction(1e9); got != 0.5 {
		t.Fatalf("post-warmup mean = %v", got)
	}
}

func statsSeries(name string, vals ...float64) *stats.Series {
	s := stats.NewSeries(name)
	for i, v := range vals {
		s.Append(int64(i)*1e9, v)
	}
	return s
}

func TestNewRejectsNonInclusiveTLB(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(64<<20, 64<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 8, 4
	_, err := New(cfg)
	if err == nil || !strings.Contains(err.Error(), "sim: TLB L2Entries 4 < L1Entries 8") {
		t.Fatalf("New with L2Entries < L1Entries: err = %v", err)
	}
}

// TestNewRejectsLongTranslation: a block translated ahead records each
// op's translation latency in 32 bits, so New refuses a machine whose
// slowest translation, a full walk plus a poison fault, would not fit, and
// accepts the longest that does.
func TestNewRejectsLongTranslation(t *testing.T) {
	t.Parallel()
	cfg := DefaultConfig(64<<20, 64<<20)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	walkMax := m.walkLat[walk.Depth4K] + m.guest.faultOverheadNs()
	cfg.FaultLatencyNs = math.MaxInt32 - walkMax
	if _, err := New(cfg); err != nil {
		t.Fatalf("New with a translation of exactly 2^31-1 ns: %v", err)
	}
	cfg.FaultLatencyNs++
	want := fmt.Sprintf("sim: a translation can take %d ns, more than the %d ns a block records", int64(math.MaxInt32)+1, math.MaxInt32)
	if _, err := New(cfg); err == nil || err.Error() != want {
		t.Fatalf("New with a translation of 2^31 ns: err = %v, want %q", err, want)
	}
}

// TestNewRejectsBadLLC: every LLC geometry cache.New would panic on, and
// every one that could not tag the hierarchy's highest physical address in
// 32 bits, is an error from New.
func TestNewRejectsBadLLC(t *testing.T) {
	t.Parallel()
	full := make([]mem.Spec, mem.MaxTiers)
	for i := range full {
		full[i] = mem.DefaultSlow(1 << mem.TierShift)
	}
	for _, tc := range []struct {
		name  string
		tiers []mem.Spec
		llc   cache.Config
		want  string // "" = accepted
	}{
		{"line size", nil, cache.Config{SizeBytes: 1 << 20, LineSize: 48},
			"sim: LLC line size 48 not a power of two"},
		{"zero sets", nil, cache.Config{SizeBytes: 512, LineSize: 64, Ways: 16},
			"sim: LLC config {SizeBytes:512 LineSize:64 Ways:16} yields zero sets"},
		{"two tiers, 64 sets", nil, cache.Config{SizeBytes: 64 << 10},
			"sim: LLC of 64 sets cannot tag physical address 0x100003ffffff in 32 bits (needs at least 65 sets)"},
		{"two tiers, 65 sets", nil, cache.Config{SizeBytes: 65 << 10}, ""},
		{"full map, 512 sets", full, cache.Config{SizeBytes: 512 << 10},
			"sim: LLC of 512 sets cannot tag physical address 0x7fffffffffff in 32 bits (needs at least 513 sets)"},
		{"full map, 513 sets", full, cache.Config{SizeBytes: 513 << 10}, ""},
		{"full map, harness floor", full, cache.Config{SizeBytes: 1 << 20}, ""},
		{"defaults", nil, cache.Config{}, ""},
	} {
		cfg := DefaultConfig(64<<20, 64<<20)
		cfg.Tiers, cfg.LLC = tc.tiers, tc.llc
		m, err := New(cfg)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: New: %v", tc.name, err)
		case tc.want == "":
			if got := m.Config().LLC; got.LineSize != 64 || got.Ways != 16 || got.SizeBytes == 0 {
				t.Errorf("%s: defaults not applied: %+v", tc.name, got)
			}
		case err == nil || err.Error() != tc.want:
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
