package fleet

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// skewApp maps size bytes of huge pages and touches only the first hotPages
// of them, uniformly; the rest of its region is idle.
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
func (a *skewApp) Regions() []addr.Range          { return []addr.Range{a.region} }

func skewMachine(t *testing.T) *sim.Machine {
	t.Helper()
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// skewMember is app as a tenant in its own cgroup with its own scoped
// engine, scanning every 100 ms.
func skewMember(t *testing.T, name string, seed uint64, app *skewApp) Member {
	t.Helper()
	p := cgroup.Default()
	p.SamplePeriodNs = 100e6
	p.SampleFraction = 0.25
	g, err := cgroup.NewGroup(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return Member{Tenant: core.NewTenant(name, app, g, core.NewEngine(g, seed))}
}

// TestFleetEnginesStayInTheirLane: two tenants share one machine, A half
// idle (demotable), B uniformly hot (nothing demotable), each a cgroup with
// its own scoped engine. A's engine must demote only A's pages; B's engine
// must demote (almost) nothing.
func TestFleetEnginesStayInTheirLane(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	m := skewMachine(t)
	res, err := Run(m, Config{DurationNs: 5e9, WindowNs: 5e8}, []Member{
		skewMember(t, "a", 11, &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}), // 16 pages, 4 hot
		skewMember(t, "b", 13, &skewApp{r: rng.New(2), size: 16 << 20, hotPages: 8}), // all 8 hot
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(res.Tenants))
	}
	a, b := res.Tenants[0], res.Tenants[1]
	if a.Ops == 0 || b.Ops == 0 {
		t.Fatal("a tenant made no progress")
	}
	coldFrac := func(tr tenantResult) float64 {
		return 1 - float64(tr.FastBytes)/float64(tr.FootprintBytes)
	}
	// Tenant A found its idle pages; tenant B stayed hot.
	if f := coldFrac(a); f < 0.3 {
		t.Errorf("tenant A cold fraction = %v, want >= 0.3", f)
	}
	if f := coldFrac(b); f > 0.2 {
		t.Errorf("tenant B cold fraction = %v, want <= 0.2", f)
	}
	// Scope isolation: the scoped footprints are disjoint and together
	// cover everything the machine has mapped.
	if sum, total := a.FootprintBytes+b.FootprintBytes, sim.ScanFootprint(m, nil).Total(); sum != total {
		t.Errorf("scoped footprints %d don't partition machine %d", sum, total)
	}
	if b.Stats.Demotions > 1 {
		t.Errorf("tenant B engine demoted %d pages", b.Stats.Demotions)
	}
	if a.Stats.Demotions == 0 {
		t.Error("tenant A engine demoted nothing")
	}
}

// TestFleetRunRejectsEmptyRuns: a run needs members and a duration.
func TestFleetRunRejectsEmptyRuns(t *testing.T) {
	t.Parallel()
	one := []Member{skewMember(t, "a", 1, &skewApp{r: rng.New(1), size: 2 << 20, hotPages: 1})}
	for _, tc := range []struct {
		name    string
		cfg     Config
		members []Member
	}{
		{"no members", Config{DurationNs: 1e9}, nil},
		{"zero duration", Config{}, one},
	} {
		if _, err := Run(skewMachine(t), tc.cfg, tc.members); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
