package core

import (
	"fmt"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/mem"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// skewApp accesses a region where the first hotPages huge pages receive all
// traffic and the rest receive none (maximal hot/cold separation).
type skewApp struct {
	r        *rng.PCG
	size     uint64
	hotPages uint64
	region   addr.Range
}

func (a *skewApp) Name() string { return "skew" }
func (a *skewApp) Init(m *sim.Machine) error {
	reg, err := m.AllocRegion(a.size, true)
	a.region = reg
	return err
}
func (a *skewApp) NextBatch(reqs []sim.Req) int {
	for i := range reqs {
		page := a.r.Uint64n(a.hotPages)
		off := a.r.Uint64n(addr.PageSize2M)
		reqs[i] = sim.Req{V: a.region.Start + addr.Virt(page*addr.PageSize2M+off), Write: a.r.Bool(0.1)}
	}
	return len(reqs)
}
func (a *skewApp) ComputeNs() int64               { return 4000 }
func (a *skewApp) Tick(*sim.Machine, int64) error { return nil }

func testGroup(t *testing.T, mutate func(*cgroup.Params)) *cgroup.Group {
	t.Helper()
	p := cgroup.Default()
	// Scale periods down so tests run quickly: 100ms scan interval.
	p.SamplePeriodNs = 100e6
	p.SampleFraction = 0.25
	if mutate != nil {
		mutate(&p)
	}
	g, err := cgroup.NewGroup("test", p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEngineDemotesColdPages(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 42)
	app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4} // 16 pages, 4 hot

	res, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 4e9})
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Periods == 0 || st.Sampled == 0 {
		t.Fatalf("engine never cycled: %+v", st)
	}
	if err := m.Verify(); err != nil {
		t.Fatalf("machine invariants violated: %v", err)
	}
	if st.Demotions == 0 {
		t.Fatalf("no demotions: %+v", st)
	}
	if res.FinalFootprint.Cold() == 0 {
		t.Fatal("no cold bytes at end")
	}
	// Never-accessed pages (12 of 16 = 75%) should largely be found cold;
	// at minimum a third of the footprint after 20 periods.
	frac := res.FinalFootprint.ColdFraction()
	if frac < 0.3 {
		t.Fatalf("cold fraction = %v, want >= 0.3", frac)
	}
	// Hot pages must stay hot: cold fraction can't exceed the idle share.
	if frac > 0.8 {
		t.Fatalf("cold fraction = %v exceeds idle share", frac)
	}
}

func TestEngineRespectsSlowdownBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// With everything uniformly hot, the engine must demote almost nothing:
	// every page's estimated rate exceeds the fraction-scaled budget.
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 7)
	app := &skewApp{r: rng.New(2), size: 16 << 20, hotPages: 8} // all 8 pages hot

	res, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 4e9})
	if err != nil {
		t.Fatal(err)
	}
	if frac := res.FinalFootprint.ColdFraction(); frac > 0.2 {
		t.Fatalf("uniformly hot app got %v cold", frac)
	}
}

// TestEngineCorrectsMisclassification: pages cold during the first half of
// a phase change become the only hot pages in the second half, and the
// corrector must promote them. With the engine's correction switch off the
// Correct phase never runs under either policy: nothing is promoted and the
// measured cold rate reads 0.
func TestEngineCorrectsMisclassification(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled runs")
	}
	t.Parallel()
	for _, policy := range PolicyNames() {
		for _, on := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/correction=%v", policy, on), func(t *testing.T) {
				t.Parallel()
				m := testMachine(t)
				eng, err := ComposeByName(testGroup(t, nil), "poison", policy, 13)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetCorrection(on)
				app := &phaseApp{r: rng.New(3), size: 48 << 20, switchNs: 2e9}
				if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 6e9}); err != nil {
					t.Fatal(err)
				}
				st := eng.Stats()
				if st.Demotions == 0 {
					t.Fatal("nothing was demoted in phase one")
				}
				if !on {
					if st.Promotions != 0 || eng.MeasuredColdRate() != 0 {
						t.Fatalf("correction off: %d promotions, measured cold rate %v; want 0, 0",
							st.Promotions, eng.MeasuredColdRate())
					}
					return
				}
				if st.Promotions == 0 {
					t.Fatal("corrector never promoted after the phase change")
				}
				// The now-hot pages must be back in fast memory.
				if fp := eng.Footprint(m); fp.ColdFraction() > 0.55 {
					t.Fatalf("cold fraction %v after correction", fp.ColdFraction())
				}
			})
		}
	}
}

// phaseApp accesses the low half of its region before switchNs and the high
// half after.
type phaseApp struct {
	r        *rng.PCG
	size     uint64
	switchNs int64
	region   addr.Range
	flipped  bool
}

func (a *phaseApp) Name() string { return "phase" }
func (a *phaseApp) Init(m *sim.Machine) error {
	reg, err := m.AllocRegion(a.size, true)
	a.region = reg
	return err
}
func (a *phaseApp) NextBatch(reqs []sim.Req) int {
	half := a.size / 2
	for i := range reqs {
		off := a.r.Uint64n(half)
		if a.flipped {
			off += half
		}
		reqs[i] = sim.Req{V: a.region.Start + addr.Virt(off)}
	}
	return len(reqs)
}
func (a *phaseApp) ComputeNs() int64 { return 4000 }
func (a *phaseApp) Tick(m *sim.Machine, now int64) error {
	if now >= a.switchNs {
		a.flipped = true
	}
	return nil
}

func TestEngineFootprintClassification(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 1)
	if err := eng.Attach(m); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllocRegion(8<<20, true); err != nil {
		t.Fatal(err)
	}
	fp := eng.Footprint(m)
	if fp.Hot2M != 8<<20 || fp.Cold() != 0 {
		t.Fatalf("initial footprint %+v", fp)
	}
	// Demote one page manually; footprint must track it.
	if _, err := m.Demote(addr.Virt(1) << 40); err != nil {
		t.Fatal(err)
	}
	fp = eng.Footprint(m)
	if fp.Cold2M != addr.PageSize2M {
		t.Fatalf("after demotion %+v", fp)
	}
}

func TestEngineDemoteFailureWhenSlowFull(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	cfg := sim.DefaultConfig(64<<20, 0) // no slow memory at all
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 4, 16
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := testGroup(t, nil)
	eng := NewEngine(g, 5)
	app := &skewApp{r: rng.New(4), size: 8 << 20, hotPages: 1}
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 3e9}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Demotions != 0 {
		t.Fatal("demotions succeeded with no slow tier")
	}
	if st.DemoteFailures == 0 {
		t.Fatal("demote failures not recorded")
	}
}

func TestEngineSamplingRestoresHugeMappings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// After each full cycle, no page may be left split: sampling must be
	// invisible to the mapping structure.
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 11)
	app := &skewApp{r: rng.New(5), size: 16 << 20, hotPages: 2}
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 4e9}); err != nil {
		t.Fatal(err)
	}
	// The pipeline always holds two cohorts in flight; every split page
	// must be accounted to a cohort — nothing leaks.
	now := m.Clock()
	for i := 1; i <= 3; i++ {
		if err := eng.Tick(m, now+int64(i)*g.Params().SamplePeriodNs); err != nil {
			t.Fatal(err)
		}
		want := eng.InflightPages() * addr.PagesPerHuge
		if n := m.PageTable().Count4K(); n != want {
			t.Fatalf("tick %d: %d split 4K mappings, want %d (inflight %d)",
				i, n, want, eng.InflightPages())
		}
		if err := m.Verify(); err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
	}
}

// TestPoisonTrackerForgetsRestoredSamples: the fault-count snapshot map holds
// a cold huge page's base and the poisoned children of the cohorts in flight
// (all 512 of a cold sample's), and restore drops a sample's child keys with
// its PT node — so after many intervals the map is bounded by the cold set
// plus the pipeline, not by every child ever poisoned.
func TestPoisonTrackerForgetsRestoredSamples(t *testing.T) {
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 7)
	app := &skewApp{r: rng.New(3), size: 64 << 20, hotPages: 4} // 32 pages, 4 hot
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 1.6e9}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	tr := eng.Tracker().(*PoisonTracker)
	// Cold pages get re-sampled (512 snapshots each) and hot ones poisoned,
	// so a map that never forgot would be far past the bound by now.
	if st.Periods < 8 || st.Demotions == 0 || st.Sampled < 64 {
		t.Fatalf("run too short to tell: %+v", st)
	}
	bound := eng.ColdPages()
	for _, s := range tr.poisonedCohort {
		if s.wasCold {
			bound += addr.PagesPerHuge
		} else {
			bound += len(s.poisoned)
		}
	}
	if got := len(tr.seen); got > bound || bound > eng.ColdPages()+addr.PagesPerHuge*tr.InflightPages() {
		t.Fatalf("seen holds %d snapshots after %d periods; %d cold pages and %d in flight allow %d",
			got, st.Periods, eng.ColdPages(), tr.InflightPages(), bound)
	}
	// Every cold page not mid-sample still has its snapshot.
	for base := range eng.led.cold {
		if _, ok := tr.seen[base]; !ok && !tr.inflight(base) {
			t.Fatalf("cold page %s lost its snapshot", base)
		}
	}
}

func TestIdleDemotePolicy(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	pol := &IdleDemote{Interval: 100e6, IdleScans: 3}
	app := &skewApp{r: rng.New(6), size: 16 << 20, hotPages: 2}
	res, err := sim.Run(m, app, pol, sim.RunConfig{DurationNs: 3e9})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Demotions() == 0 {
		t.Fatal("idle-demote never demoted")
	}
	// 6 of 8 pages are never touched: they must end up cold.
	if frac := res.FinalFootprint.ColdFraction(); frac < 0.5 {
		t.Fatalf("cold fraction = %v", frac)
	}
}

func TestIdleDemotePromotesOnAccess(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	pol := &IdleDemote{Interval: 100e6, IdleScans: 2}
	app := &phaseApp{r: rng.New(8), size: 8 << 20, switchNs: 15e8}
	if _, err := sim.Run(m, app, pol, sim.RunConfig{DurationNs: 4e9}); err != nil {
		t.Fatal(err)
	}
	if pol.Promotions() == 0 {
		t.Fatal("idle-demote never promoted a touched cold page")
	}
}

func TestIdleDemoteValidation(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	if err := (&IdleDemote{Interval: 0, IdleScans: 1}).Attach(m); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := (&IdleDemote{Interval: 1e9, IdleScans: 0}).Attach(m); err == nil {
		t.Fatal("zero idle scans accepted")
	}
}

func TestEngineSlowdownWithinTargetEndToEnd(t *testing.T) {
	t.Parallel()
	// The headline property (§5): measured slowdown stays within the same
	// order as the target while cold data is found. Run baseline and
	// Thermostat on identical app/seed.
	if testing.Short() {
		t.Skip("end-to-end slowdown test is slow")
	}
	run := func(policy sim.Policy) *sim.RunResult {
		m := testMachine(t)
		app := &skewApp{r: rng.New(9), size: 64 << 20, hotPages: 8} // 32 pages, 8 hot
		res, err := sim.Run(m, app, policy, sim.RunConfig{DurationNs: 10e9, WarmupNs: 2e9})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Paper parameters (5% sample fraction) for the end-to-end check.
	g := testGroup(t, func(p *cgroup.Params) {
		p.SampleFraction = 0.05
		p.SamplePeriodNs = 200e6
	})
	base := run(sim.NullPolicy{Interval: 200e6})
	ts := run(NewEngine(g, 21))
	sd := sim.Slowdown(base, ts)
	if sd > 0.06 {
		t.Fatalf("slowdown = %.3f, want <= 0.06 (2x the 3%% target)", sd)
	}
	if ts.FinalFootprint.ColdFraction() < 0.2 {
		t.Fatalf("cold fraction = %v", ts.FinalFootprint.ColdFraction())
	}
}

func TestEngineAccessors(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 3)
	if eng.Name() != "thermostat" {
		t.Fatal("name")
	}
	if eng.IntervalNs() != g.Params().SamplePeriodNs {
		t.Fatal("interval")
	}
	if err := eng.Attach(m); err != nil {
		t.Fatal(err)
	}
	if eng.ColdPages() != 0 || eng.InflightPages() != 0 {
		t.Fatal("fresh engine has state")
	}
	if got := eng.LastEstimates(); got != nil {
		t.Fatalf("fresh estimates = %v", got)
	}
	// Ticking a different machine is an error.
	m2 := testMachine(t)
	if err := eng.Tick(m2, 1e9); err == nil {
		t.Fatal("cross-machine tick accepted")
	}
}

func TestEngineScopeRestrictsSampling(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 9)
	if err := eng.Attach(m); err != nil {
		t.Fatal(err)
	}
	inScope, err := m.AllocRegion(8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	outScope, err := m.AllocRegion(8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetScope(func() []addr.Range { return []addr.Range{inScope} })
	// Drive several full cycles: everything in scope is idle, so it gets
	// demoted; the out-of-scope region must be untouched.
	for i := int64(1); i <= 12; i++ {
		if err := eng.Tick(m, i*g.Params().SamplePeriodNs); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Stats().Demotions == 0 {
		t.Fatal("no demotions in scope")
	}
	outScope.Each2M(func(base addr.Virt) {
		e, _, ok := m.PageTable().Lookup(base)
		if !ok {
			t.Fatalf("%s unmapped", base)
		}
		if mem.TierOf(e.Frame) != mem.Fast {
			t.Fatalf("out-of-scope page %s was demoted", base)
		}
	})
	fp := eng.Footprint(m)
	if fp.Total() != inScope.Size() {
		t.Fatalf("footprint %d includes out-of-scope bytes (want %d)", fp.Total(), inScope.Size())
	}
}

func TestEnginePrefilterAffectsEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	// With the prefilter off, estimates scale by 512/nPoisoned instead of
	// nAccessed/nPoisoned; for a page with a single hot child the naive
	// strategy usually misses it entirely. Statistical check over one
	// cycle: the naive estimate diverges from the filtered one.
	run := func(prefilter bool) float64 {
		m := testMachine(t)
		g := testGroup(t, nil)
		eng := NewEngine(g, 17)
		eng.SetPrefilter(prefilter)
		app := &skewApp{r: rng.New(7), size: 8 << 20, hotPages: 1}
		res, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 3e9})
		if err != nil {
			t.Fatal(err)
		}
		_ = res
		return float64(eng.Stats().Demotions)
	}
	// Both configurations still find the fully idle pages; this is a
	// smoke check that the switch is plumbed through without breaking
	// classification.
	if run(true) == 0 || run(false) == 0 {
		t.Fatal("a prefilter configuration found no cold pages")
	}
}

func TestEngineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	run := func() (uint64, float64, uint64) {
		m := testMachine(t)
		g := testGroup(t, nil)
		eng := NewEngine(g, 99)
		app := &skewApp{r: rng.New(42), size: 16 << 20, hotPages: 3}
		res, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 2e9})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ops, res.FinalFootprint.ColdFraction(), eng.Stats().Demotions
	}
	ops1, cold1, dem1 := run()
	ops2, cold2, dem2 := run()
	if ops1 != ops2 || cold1 != cold2 || dem1 != dem2 {
		t.Fatalf("non-deterministic: (%d,%v,%d) vs (%d,%v,%d)",
			ops1, cold1, dem1, ops2, cold2, dem2)
	}
}

// TestStateBytesCoversEveryCell: once a composition has demoted, both halves
// of Engine.StateBytes hold something, for every tracker × policy cell.
func TestStateBytesCoversEveryCell(t *testing.T) {
	if testing.Short() {
		t.Skip("eight multi-second scaled runs")
	}
	t.Parallel()
	for _, tracker := range TrackerNames() {
		for _, policy := range PolicyNames() {
			t.Run(tracker+"+"+policy, func(t *testing.T) {
				t.Parallel()
				m := testMachine(t)
				eng, err := ComposeByName(testGroup(t, nil), tracker, policy, 42)
				if err != nil {
					t.Fatal(err)
				}
				app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}
				if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 4e9}); err != nil {
					t.Fatal(err)
				}
				if eng.Stats().Demotions == 0 {
					t.Fatalf("setup: no demotions: %+v", eng.Stats())
				}
				if tb, pb := eng.Tracker().StateBytes(), eng.Policy().StateBytes(); tb == 0 || pb == 0 {
					t.Errorf("StateBytes: tracker %d, policy %d; want both non-zero", tb, pb)
				}
			})
		}
	}
}
