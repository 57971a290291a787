package core

import (
	"maps"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
)

// attachedHeat returns a heat policy attached to a test machine under a
// group sampling every periodNs, so its half-life is two periods.
func attachedHeat(t *testing.T, periodNs int64) *heatPolicy {
	t.Helper()
	g := testGroup(t, func(p *cgroup.Params) { p.SamplePeriodNs = periodNs })
	p := newHeatPolicy()
	if err := p.Attach(testMachine(t), g, NewPoisonTracker(g, 1)); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHeatDecayMonotone: the decay factor never exceeds 1 and is monotone
// non-increasing in idle time — waiting longer can only cool a page.
func TestHeatDecayMonotone(t *testing.T) {
	t.Parallel()
	p := attachedHeat(t, 400e6) // half-life 0.8 s
	prev := p.decayFactor(0)
	if prev != 1 {
		t.Fatalf("DecayFactor(0) = %v, want 1", prev)
	}
	if p.decayFactor(-5) != 1 {
		t.Fatalf("negative idle time must not heat a page")
	}
	for dt := 0.01; dt < 100; dt *= 1.7 {
		f := p.decayFactor(dt)
		if f > prev {
			t.Fatalf("DecayFactor(%v) = %v rose above %v", dt, f, prev)
		}
		if f < 0 || f > 1 {
			t.Fatalf("DecayFactor(%v) = %v outside [0, 1]", dt, f)
		}
		prev = f
	}
	// One half-life halves the score exactly.
	if f := p.decayFactor(0.8); f < 0.499 || f > 0.501 {
		t.Fatalf("DecayFactor(one half-life) = %v, want 0.5", f)
	}
}

// TestHeatBounded: no access pattern can push a page's heat past the
// maxHeatFactor bound, and heat never goes negative.
func TestHeatBounded(t *testing.T) {
	t.Parallel()
	p := attachedHeat(t, 200e6) // half-life 0.4 s
	base := addr.Virt(0x200000)
	max := p.maxHeat()
	for i := 0; i < 1000; i++ {
		p.bump(base, max*10, 0.001) // absurd rate, negligible decay
		if h := p.Heat(base); h > max {
			t.Fatalf("heat %v exceeded bound %v after %d bumps", h, max, i+1)
		}
	}
	p.bump(base, 0, 1e9) // decay for ~forever
	if h := p.Heat(base); h < 0 {
		t.Fatalf("heat decayed below zero: %v", h)
	}
}

// TestHeatNoSingleTickOscillation runs a full poison+heat composition and
// asserts the watermark hysteresis plus the moved-this-tick guard hold: no
// page migrates twice at the same virtual timestamp (all moves within one
// engine tick share the tick's clock).
func TestHeatNoSingleTickOscillation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	col := telemetry.NewCollector()
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	cfg.Recorder = col
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := testGroup(t, nil)
	eng, err := ComposeByName(g, "poison", "heat", 42)
	if err != nil {
		t.Fatal(err)
	}
	app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 4e9}); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Demotions == 0 {
		t.Fatalf("heat policy never demoted: %+v", st)
	}
	type tickPage struct {
		timeNs int64
		page   addr.Virt
	}
	seen := map[tickPage]int{}
	for _, ev := range col.Events() {
		if ev.Kind != telemetry.KindMigrated {
			continue
		}
		key := tickPage{ev.TimeNs, ev.Page}
		seen[key]++
		if seen[key] > 1 {
			t.Fatalf("page %v migrated %d times within one tick (t=%dns)",
				ev.Page, seen[key], ev.TimeNs)
		}
	}
}

// TestHeatSqueezeGuard: a page Engine.Squeeze demotes between ticks keeps
// the moved-this-period mark through the next tick, so that tick's Correct
// leaves it cold even with its heat above the promotion watermark. The mark
// lasts one period: later ticks promote the page.
func TestHeatSqueezeGuard(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng, err := ComposeByName(g, "poison", "heat", 42)
	if err != nil {
		t.Fatal(err)
	}
	app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 1e9}); err != nil {
		t.Fatal(err)
	}
	wasCold := maps.Clone(eng.led.cold)
	if _, err := eng.Squeeze(64 << 20); err != nil {
		t.Fatal(err)
	}
	// Only a page outside the sampling pipeline is measured by Correct.
	tr := eng.Tracker().(*PoisonTracker)
	var squeezed []addr.Virt
	for b := range eng.led.cold {
		if !wasCold[b] && !tr.inflight(b) {
			squeezed = append(squeezed, b)
		}
	}
	if len(squeezed) == 0 {
		t.Fatal("setup: squeeze demoted no page Correct can measure")
	}
	p := eng.Policy().(*heatPolicy)
	promotions := eng.Stats().Promotions
	now, period := m.Clock(), g.Params().SamplePeriodNs
	tick := func(n int64) {
		for _, b := range squeezed {
			p.heat[b] = p.maxHeat()
		}
		if err := eng.Tick(m, now+n*period); err != nil {
			t.Fatal(err)
		}
	}
	tick(1)
	for _, b := range squeezed {
		if !eng.IsCold(b) {
			t.Fatalf("squeezed page %s promoted by the next tick's Correct", b)
		}
	}
	for n := int64(2); n <= 10 && eng.Stats().Promotions == promotions; n++ {
		tick(n)
	}
	if eng.Stats().Promotions == promotions {
		t.Fatal("no squeezed page promoted in ten ticks at maximum heat")
	}
}
