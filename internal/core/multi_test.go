package core

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/mem"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// scopedApp is a skew app that can report its region for engine scoping.
type scopedApp struct {
	skewApp
}

func (a *scopedApp) Regions() []addr.Range { return []addr.Range{a.region} }

func TestMultiTenantSharedTrapNoInterference(t *testing.T) {
	t.Parallel()
	// The regression the delta-count design prevents: engine A's reads
	// must not erase engine B's pending fault counts. Drive two scoped
	// engines whose cold pages both fault; both correctors must see their
	// own counts.
	cfg := sim.DefaultConfig(128<<20, 128<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 4
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	appA := &scopedApp{skewApp{r: rng.New(5), size: 16 << 20, hotPages: 16}}
	appB := &scopedApp{skewApp{r: rng.New(6), size: 16 << 20, hotPages: 16}}
	mk := func(seed uint64, app *scopedApp) *Engine {
		p := cgroup.Default()
		p.SamplePeriodNs = 100e6
		p.SampleFraction = 0.25
		// Make the budget binding at this test's small fault volume:
		// target = 3%/100us = 300 faults/s.
		p.SlowMemLatencyNs = 100000
		g, _ := cgroup.NewGroup("t", p)
		e := NewEngine(g, seed)
		e.SetScope(app.Regions)
		return e
	}
	engA, engB := mk(1, appA), mk(2, appB)
	if err := appA.Init(m); err != nil {
		t.Fatal(err)
	}
	if err := appB.Init(m); err != nil {
		t.Fatal(err)
	}
	if err := engA.Attach(m); err != nil {
		t.Fatal(err)
	}
	if err := engB.Attach(m); err != nil {
		t.Fatal(err)
	}
	// Demote one page of each tenant manually and register as cold.
	pageA := appA.region.Start.Base2M()
	pageB := appB.region.Start.Base2M()
	if _, err := m.Demote(pageA); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Demote(pageB); err != nil {
		t.Fatal(err)
	}
	engA.led.cold[pageA] = true
	engB.led.cold[pageB] = true

	// Fault both cold pages heavily (evict TLB in between).
	for i := 0; i < 50; i++ {
		if _, err := m.Access(pageA+addr.Virt(i*64), false); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Access(pageB+addr.Virt(i*64), false); err != nil {
			t.Fatal(err)
		}
		m.TLB().Invalidate(pageA, m.VPID())
		m.TLB().Invalidate(pageB, m.VPID())
	}
	// Engine A's corrector runs first and consumes its deltas...
	if err := engA.Tick(m, m.Clock()+100e6); err != nil {
		t.Fatal(err)
	}
	// ...and engine B must still see its own page's full count.
	if err := engB.Tick(m, m.Clock()+100e6); err != nil {
		t.Fatal(err)
	}
	// Both pages were hot while cold -> both engines must have promoted.
	if engA.Stats().Promotions != 1 {
		t.Errorf("engine A promotions = %d, want 1", engA.Stats().Promotions)
	}
	if engB.Stats().Promotions != 1 {
		t.Errorf("engine B promotions = %d (count interference?), want 1", engB.Stats().Promotions)
	}
	_ = mem.Slow
}
