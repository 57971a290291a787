package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// castTenant is one tenant of a test fleet, before it is built.
type castTenant struct {
	name               string
	spec               workload.Spec
	sloPct             float64
	priority, share    int
	arriveNs, departNs int64
	// intervalNs is the engine's scan interval (0 = the cast's period).
	intervalNs int64
	// floorFrac is the DRAM floor as a fraction of the tenant's footprint.
	floorFrac float64
	// noEst skips the admission estimate (Member.EstBytes = 0).
	noEst bool
	// short wraps the app so its NextBatch fills one request fewer than
	// asked.
	short bool
}

// cast is a whole test fleet: the tenants, the scale their specs are built
// at (harness.Scale's arithmetic, restated here because harness imports this
// package), the machine, and the run's Config.
type cast struct {
	tenants        []castTenant
	div            uint64
	dilate         int64
	periodNs       int64
	sampleFraction float64
	// poolNum/poolDen size the fast tier, and so the arbitrated pool,
	// relative to the footprint of the tenants present at the start (of all
	// of them when the machine starts empty).
	poolNum, poolDen uint64
	seed             uint64
	cfg              Config
	// noRecorder leaves the machine without a telemetry Recorder, so the
	// run may draw blocks ahead; its exports are then empty.
	noRecorder bool
	// wrap, when non-nil, decorates each tenant's app.
	wrap func(core.ScopedApp) core.ScopedApp
}

// shortApp's NextBatch fills one request fewer than asked.
type shortApp struct{ core.ScopedApp }

func (a shortApp) NextBatch(reqs []sim.Req) int { return a.ScopedApp.NextBatch(reqs) - 1 }

// footprint is the spec's committed bytes at the cast's divisor plus
// huge-page rounding slop per segment, as harness sizes machines.
func (c *cast) footprint(spec workload.Spec) uint64 {
	var b uint64
	for _, seg := range spec.Segments {
		b += seg.Bytes
	}
	if g := spec.Growth; g != nil {
		b += g.ChunkBytes * uint64(g.MaxChunks)
	}
	return b/c.div + uint64(len(spec.Segments)+1)*(2<<20)
}

// fleetRun is one side of a differential: everything a run leaves behind.
type fleetRun struct {
	res     *Result
	err     error
	clock   int64
	metrics sim.Metrics
	engines []core.Stats
	trace   []byte
	jsonl   []byte
}

// run builds the cast from scratch — machine, collector, cgroup tree, apps,
// engines — and drives it with loop (Run or refRun).
func (c *cast) run(tb testing.TB, loop func(*sim.Machine, Config, []Member) (*Result, error)) fleetRun {
	tb.Helper()
	var initial, total uint64
	for _, t := range c.tenants {
		fp := c.footprint(t.spec)
		total += fp
		if t.arriveNs <= 0 {
			initial += fp
		}
	}
	if initial == 0 {
		initial = total
	}
	mc := sim.DefaultConfig(initial*c.poolNum/c.poolDen, total+(16<<20))
	mc.TLB.L1Entries = max(2, int(64/c.div))
	mc.TLB.L2Entries = max(8, int(1024/c.div))
	mc.LLC.SizeBytes = max(1<<20, (45<<20)/c.div)
	mc.FaultLatencyNs = 1000 * c.dilate
	mc.SlowSpec.ReadLatency = 1000 * c.dilate
	mc.SlowSpec.WriteLatency = 1000 * c.dilate
	mc.VM.HostHugePages = true
	m, err := sim.New(mc)
	if err != nil {
		tb.Fatal(err)
	}
	col := telemetry.NewCollector()
	if !c.noRecorder {
		m.SetRecorder(col)
	}

	params := func(t castTenant) cgroup.Params {
		p := cgroup.Default()
		p.SamplePeriodNs = c.periodNs
		if t.intervalNs > 0 {
			p.SamplePeriodNs = t.intervalNs
		}
		if t.sloPct > 0 {
			p.TolerableSlowdownPct = t.sloPct
		}
		if c.sampleFraction > 0 {
			p.SampleFraction = c.sampleFraction
		}
		p.SlowMemLatencyNs = 1000 * c.dilate
		return p
	}
	root, err := cgroup.NewGroup("fleet", params(castTenant{}))
	if err != nil {
		tb.Fatal(err)
	}
	var members []Member
	var engines []*core.Engine
	for i, t := range c.tenants {
		g, err := root.NewChild(t.name, params(t))
		if err != nil {
			tb.Fatal(err)
		}
		seed := c.seed + uint64(i)*0x9e3779b97f4a7c15
		spec := t.spec
		spec.ComputeNs *= c.dilate
		spec = spec.WithDwell(int(c.div)).WithTimeDilation(c.dilate)
		app, err := workload.NewApp(spec, c.div, seed)
		if err != nil {
			tb.Fatal(err)
		}
		var scoped core.ScopedApp = app
		if t.short {
			scoped = shortApp{app}
		}
		if c.wrap != nil {
			scoped = c.wrap(scoped)
		}
		eng := core.NewEngine(g, seed+0x7e)
		ten := core.NewTenant(t.name, scoped, g, eng)
		ten.SLOPct = params(t).TolerableSlowdownPct
		ten.Priority, ten.Share = max(1, t.priority), max(1, t.share)
		ten.FloorBytes = uint64(float64(c.footprint(t.spec)) * t.floorFrac)
		mb := Member{Tenant: ten, ArriveNs: t.arriveNs, DepartNs: t.departNs}
		if !t.noEst {
			mb.EstBytes = c.footprint(t.spec)
		}
		members = append(members, mb)
		engines = append(engines, eng)
	}
	cfg := c.cfg
	cfg.Root = root

	out := fleetRun{}
	out.res, out.err = loop(m, cfg, members)
	out.clock = m.Clock()
	out.metrics = m.Metrics()
	for _, e := range engines {
		out.engines = append(out.engines, e.Stats())
	}
	var trace, jsonl bytes.Buffer
	if err := col.WriteChromeTrace(&trace); err != nil {
		tb.Fatal(err)
	}
	if err := col.WriteJSONL(&jsonl); err != nil {
		tb.Fatal(err)
	}
	out.trace, out.jsonl = trace.Bytes(), jsonl.Bytes()
	return out
}

// requireSameRun fails unless the two runs are indistinguishable: the same
// error or the same Result (global series, per-tenant results, Series), the
// same machine counters and clock, the same engine counters, and byte-equal
// telemetry exports.
func requireSameRun(tb testing.TB, got, want fleetRun) {
	tb.Helper()
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		tb.Fatalf("errors differ:\n got %v\nwant %v", got.err, want.err)
	}
	if got.clock != want.clock {
		tb.Fatalf("final clock %d, want %d", got.clock, want.clock)
	}
	if !reflect.DeepEqual(got.metrics, want.metrics) {
		tb.Fatalf("machine metrics differ:\n got %+v\nwant %+v", got.metrics, want.metrics)
	}
	if !reflect.DeepEqual(got.engines, want.engines) {
		tb.Fatalf("engine stats differ:\n got %+v\nwant %+v", got.engines, want.engines)
	}
	if !reflect.DeepEqual(got.res, want.res) {
		if got.res != nil && want.res != nil {
			for i := range want.res.Tenants {
				if !reflect.DeepEqual(got.res.Tenants[i], want.res.Tenants[i]) {
					tb.Errorf("tenant %d differs:\n got %+v\nwant %+v", i, got.res.Tenants[i], want.res.Tenants[i])
				}
			}
			if !reflect.DeepEqual(got.res.Series, want.res.Series) {
				tb.Errorf("tenant series differ")
			}
			if !reflect.DeepEqual(got.res.Global, want.res.Global) {
				tb.Errorf("global results differ:\n got %+v\nwant %+v", got.res.Global, want.res.Global)
			}
		}
		tb.Fatalf("results differ:\n got %+v\nwant %+v", got.res, want.res)
	}
	if !bytes.Equal(got.trace, want.trace) {
		tb.Fatal("trace exports differ")
	}
	if !bytes.Equal(got.jsonl, want.jsonl) {
		tb.Fatal("JSONL exports differ")
	}
}

// nightCast is harness.FleetNightTenants at tiny scale over a shortened
// night: two services resident throughout, a batch that departs at 75 %, a
// canary that arrives at 40 % into a pool sized for the initial three.
func nightCast(seed uint64) *cast {
	const duration = 3_200_000_000
	return &cast{
		tenants: []castTenant{
			{name: "redis-cache", spec: workload.Redis(), sloPct: 3, priority: 2, share: 2, floorFrac: 0.1},
			{name: "mysql-oltp", spec: workload.MySQLTPCC(), sloPct: 5, priority: 2, floorFrac: 0.1},
			{name: "analytics-batch", spec: workload.InMemAnalytics(), sloPct: 15, floorFrac: 0.1,
				departNs: duration * 3 / 4},
			{name: "search-canary", spec: workload.WebSearch(), sloPct: 10, floorFrac: 0.1,
				arriveNs: duration * 2 / 5},
		},
		div: 256, dilate: 8, periodNs: 400e6,
		poolNum: 13, poolDen: 12,
		seed: seed,
		cfg: Config{DurationNs: duration, WarmupNs: 800e6,
			WindowNs: 400e6, ArbiterPeriodNs: 400e6},
	}
}

// TestFleetBlocksMatchPerOp holds Run's blocks to the per-op oracle
// refRun: the night cast with its arrival and its departure must leave
// the same Result, machine, engines and telemetry exports whether ops are
// issued in planned blocks with per-tenant NextBatch draws or one at a time
// with every boundary tested after each.
func TestFleetBlocksMatchPerOp(t *testing.T) {
	cases := []struct {
		name  string
		short bool
		build func() *cast
	}{
		{name: "seed1", short: true, build: func() *cast { return nightCast(1) }},
		{name: "seed2", build: func() *cast { return nightCast(2) }},
		{name: "seed3", build: func() *cast { return nightCast(3) }},
		{name: "seed4", build: func() *cast { return nightCast(4) }},
		{name: "no-warmup", build: func() *cast {
			c := nightCast(1)
			c.cfg.WarmupNs = 0
			return c
		}},
		{name: "warmup-off-boundary", build: func() *cast {
			c := nightCast(2)
			c.cfg.WarmupNs = 800e6 + 12_345
			return c
		}},
		{name: "unequal-shares", build: func() *cast {
			c := nightCast(3)
			for i, s := range []int{3, 1, 2, 5} {
				c.tenants[i].share = s
			}
			return c
		}},
		{name: "periods-out-of-step", build: func() *cast {
			c := nightCast(4)
			c.cfg.WindowNs, c.cfg.ArbiterPeriodNs = 300e6, 500e6
			c.tenants[1].intervalNs = 250e6
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && !tc.short {
				t.Skip("multi-second scaled run")
			}
			t.Parallel()
			got := tc.build().run(t, Run)
			want := tc.build().run(t, refRun)
			requireSameRun(t, got, want)
			if want.err != nil {
				t.Fatalf("night cast failed: %v", want.err)
			}
			// The scenario has to have happened for the comparison to mean
			// anything: churn on both edges and faults on the access path.
			ten := got.res.Tenants
			if ten[2].DepartedNs == 0 || ten[3].ArrivedNs == 0 || ten[3].Rejected {
				t.Fatalf("churn did not happen: batch departed at %d, canary arrived at %d (rejected %v)",
					ten[2].DepartedNs, ten[3].ArrivedNs, ten[3].Rejected)
			}
			if got.metrics.PoisonFaults == 0 {
				t.Fatal("no poison faults — the run never left the TLB-hit path")
			}
		})
	}
}

// TestFleetShortBatchFails: a tenant whose NextBatch comes back short fails
// the run with an error that names the tenant and its app, rather than
// running on a stream with a hole in it.
func TestFleetShortBatchFails(t *testing.T) {
	t.Parallel()
	c := smallCast(0, 0)
	c.tenants[0].short = true
	out := c.run(t, runOrHang(t))
	if out.err == nil || !strings.Contains(out.err.Error(), "small") || !strings.Contains(out.err.Error(), "NextBatch") {
		t.Fatalf("fleet with a short NextBatch: err = %v, want an error naming the tenant's NextBatch", out.err)
	}
}

// smallCast is one small uniform tenant on a small machine, sized so a
// two-second run is a few hundred thousand ops.
func smallCast(arriveNs, departNs int64) *cast {
	spec := workload.Spec{
		Name: "small", ComputeNs: 20_000,
		Segments: []workload.SegmentSpec{
			{Name: "heap", Bytes: 8 << 20, Weight: 1, Picker: workload.Uniform{}, WriteFrac: 0.2},
		},
	}
	return &cast{
		tenants: []castTenant{{name: "small", spec: spec, arriveNs: arriveNs, departNs: departNs}},
		div:     1, dilate: 1, periodNs: 250e6,
		poolNum: 2, poolDen: 1,
		seed: 1,
		cfg:  Config{DurationNs: 2e9, WindowNs: 250e6, ArbiterPeriodNs: 250e6},
	}
}

// runOrHang is Run for tests that would otherwise spin forever where they
// mean to fail: it fails the test, rather than the whole test binary ten
// minutes later, if Run does not return.
func runOrHang(t *testing.T) func(*sim.Machine, Config, []Member) (*Result, error) {
	return func(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
		type outcome struct {
			res *Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := Run(m, cfg, members)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(30 * time.Second):
			t.Fatal("fleet.Run did not return: the clock is not reaching the next boundary while nobody is resident")
			return nil, nil
		}
	}
}

// TestFleetIdleUntilFirstArrival: a machine that starts empty idles to the
// sole tenant's arrival — landing on it exactly, with the windows and arbiter
// periods of the empty stretch all recorded — and then runs normally.
func TestFleetIdleUntilFirstArrival(t *testing.T) {
	t.Parallel()
	c := smallCast(1e9, 0)
	out := c.run(t, runOrHang(t))
	if out.err != nil {
		t.Fatal(out.err)
	}
	if at := out.res.Tenants[0].ArrivedNs; at != 1e9 {
		t.Fatalf("tenant admitted at %d, want exactly %d", at, int64(1e9))
	}
	periods := uint64(c.cfg.DurationNs / c.cfg.ArbiterPeriodNs)
	if out.res.Periods != periods {
		t.Fatalf("%d arbiter periods, want %d", out.res.Periods, periods)
	}
	if n := len(out.res.Global.SlowRate.Values); n != int(periods) {
		t.Fatalf("%d window points, want %d", n, periods)
	}
	if out.res.Tenants[0].Ops == 0 || out.res.Global.DurationNs < c.cfg.DurationNs {
		t.Fatalf("run did not play out: %d ops over %d ns", out.res.Tenants[0].Ops, out.res.Global.DurationNs)
	}
	requireSameRun(t, out, c.run(t, refRun))
}

// TestFleetIdleAfterLastDeparture: once the sole tenant has left, the run
// idles boundary to boundary and ends at exactly its end — including from a
// departure a few nanoseconds off a boundary, where a clock that advanced
// by gap/threads stopped moving.
func TestFleetIdleAfterLastDeparture(t *testing.T) {
	t.Parallel()
	c := smallCast(0, 1e9+3)
	out := c.run(t, runOrHang(t))
	if out.err != nil {
		t.Fatal(out.err)
	}
	tr := out.res.Tenants[0]
	if tr.DepartedNs < 1e9+3 || tr.DepartedNs > 1e9+3+100_000 {
		t.Fatalf("tenant departed at %d, want just past %d", tr.DepartedNs, int64(1e9+3))
	}
	if out.res.Global.DurationNs != c.cfg.DurationNs {
		t.Fatalf("run lasted %d ns, want exactly %d", out.res.Global.DurationNs, c.cfg.DurationNs)
	}
	if periods := uint64(c.cfg.DurationNs / c.cfg.ArbiterPeriodNs); out.res.Periods != periods {
		t.Fatalf("%d arbiter periods, want %d", out.res.Periods, periods)
	}
	requireSameRun(t, out, c.run(t, refRun))
}
