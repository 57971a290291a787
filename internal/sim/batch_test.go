package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
	"thermostat/internal/telemetry"
)

// churnPolicy demotes a sliding window of huge pages each tick and promotes
// the previously demoted window, keeping poison faults and migrations active
// throughout the run so the differential tests exercise the full access path
// (TLB invalidations, fault dispatch, slow-tier costing).
type churnPolicy struct {
	interval int64
	region   addr.Range
	cursor   int
	demoted  []addr.Virt
}

func (p *churnPolicy) Name() string            { return "churn" }
func (p *churnPolicy) IntervalNs() int64       { return p.interval }
func (p *churnPolicy) Attach(m *Machine) error { return nil }
func (p *churnPolicy) Footprint(m *Machine) Footprint {
	return ScanFootprint(m, nil)
}

func (p *churnPolicy) Tick(m *Machine, now int64) error {
	for _, v := range p.demoted {
		if _, err := m.Promote(v); err != nil {
			return err
		}
	}
	p.demoted = p.demoted[:0]
	pages := int(p.region.Size() / addr.PageSize2M)
	for i := 0; i < 2 && pages > 0; i++ {
		v := p.region.Start + addr.Virt(uint64(p.cursor%pages)*addr.PageSize2M)
		if _, err := m.Demote(v); err != nil {
			return err
		}
		p.demoted = append(p.demoted, v)
		p.cursor++
	}
	return nil
}

// missHook builds a fresh stateful miss hook that counts its charged events
// in events, and returns it with its declared bound.
type missHook func(events *uint64) (func(addr.Virt, bool) int64, int64)

// cmStyleHook charges a CM-bit-style flat fault cost on every miss to an
// even-numbered huge page.
func cmStyleHook(events *uint64) (func(addr.Virt, bool) int64, int64) {
	return func(v addr.Virt, _ bool) int64 {
		if (uint64(v)/addr.PageSize2M)%2 != 0 {
			return 0
		}
		*events++
		return 100
	}, 100
}

// pebsStyleHook samples every 7th miss at a record cost, and every 64th
// record adds a buffer-drain interrupt: the charge varies per event and
// reaches its declared bound only on a drain. The drain is stretched from
// PEBS's 4 µs to 200 µs, far above the rest of the per-op bound, so that a
// block bound leaving the hook out lets a drain cross a boundary mid-block
// and fails the differential.
func pebsStyleHook(events *uint64) (func(addr.Virt, bool) int64, int64) {
	var misses, records uint64
	return func(addr.Virt, bool) int64 {
		if misses++; misses%7 != 0 {
			return 0
		}
		*events++
		if records++; records%64 == 0 {
			return 20 + 200_000
		}
		return 20
	}, 20 + 200_000
}

// batchRun is one side of the differential: the result, the machine, the
// (virtual time, accesses so far) pair at every policy tick, the telemetry
// exports, the largest batch the app was asked for and the miss hook's
// charged events.
type batchRun struct {
	res        *RunResult
	m          *Machine
	trajectory [][2]uint64
	trace      []byte
	metrics    []byte
	maxBatch   int
	hookEvents uint64
}

// runPair executes the same seeded workload twice — under Run and under the
// per-op oracle refRun — with hook, when non-nil, installed on each side's
// machine, and the tick hook stopping the run (ErrStopRun) at tick stopAt
// when it is positive, and returns both sides. A hooked run gets a 1 MB LLC, so that
// misses, and with them hook charges, keep coming up to every boundary
// rather than only after the churn moves pages.
func runPair(t *testing.T, rc RunConfig, mode SlowMemMode, hook missHook, stopAt int) (batched, serial batchRun) {
	t.Helper()
	run := func(loop func(*Machine, App, Policy, RunConfig) (*RunResult, error)) batchRun {
		cfg := DefaultConfig(64<<20, 64<<20)
		cfg.Mode = mode
		if hook != nil {
			cfg.LLC.SizeBytes = 1 << 20
		}
		col := telemetry.NewCollector()
		cfg.Recorder = col
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.EnablePageCounts()
		out := batchRun{m: m}
		if hook != nil {
			m.SetMissHook(hook(&out.hookEvents))
		}
		pol := &churnPolicy{interval: 1e8}
		inner := &uniformApp{
			name: "batch-uniform", size: 8 << 20, huge: true,
			r: rng.New(42), compute: 300,
		}
		app := &regionWire{app: inner, pol: pol}
		rc := rc
		rc.TickHook = func(now int64) error {
			out.trajectory = append(out.trajectory, [2]uint64{uint64(now), m.Metrics().Accesses})
			if len(out.trajectory) == stopAt {
				return ErrStopRun
			}
			return nil
		}
		if out.res, err = loop(m, app, pol, rc); err != nil {
			t.Fatal(err)
		}
		var tr, mt bytes.Buffer
		if err := col.WriteChromeTrace(&tr); err != nil {
			t.Fatal(err)
		}
		if err := col.WriteJSONL(&mt); err != nil {
			t.Fatal(err)
		}
		out.trace, out.metrics, out.maxBatch = tr.Bytes(), mt.Bytes(), inner.maxBatch
		return out
	}
	return run(Run), run(refRun)
}

// regionWire forwards App calls and points the policy at the app's region
// once Init has allocated it (Attach is too early: the app allocates in
// Init).
type regionWire struct {
	app *uniformApp
	pol *churnPolicy
}

func (w *regionWire) Name() string { return w.app.Name() }
func (w *regionWire) Init(m *Machine) error {
	if err := w.app.Init(m); err != nil {
		return err
	}
	w.pol.region = w.app.region
	return nil
}
func (w *regionWire) NextBatch(reqs []Req) int         { return w.app.NextBatch(reqs) }
func (w *regionWire) ComputeNs() int64                 { return w.app.ComputeNs() }
func (w *regionWire) Tick(m *Machine, now int64) error { return w.app.Tick(m, now) }

func checkRunPairEqual(t *testing.T, b, s batchRun) {
	t.Helper()
	batched, serial := b.res, s.res
	if b.maxBatch < 2 || s.maxBatch != 1 {
		t.Errorf("largest NextBatch: batched side %d (want > 1), per-op side %d (want 1)", b.maxBatch, s.maxBatch)
	}
	if batched.Ops != serial.Ops {
		t.Errorf("ops: batched %d serial %d", batched.Ops, serial.Ops)
	}
	if batched.DurationNs != serial.DurationNs {
		t.Errorf("duration: batched %d serial %d", batched.DurationNs, serial.DurationNs)
	}
	if batched.Throughput != serial.Throughput {
		t.Errorf("throughput: batched %v serial %v", batched.Throughput, serial.Throughput)
	}
	if !reflect.DeepEqual(batched.Metrics, serial.Metrics) {
		t.Errorf("metrics diverge:\nbatched %+v\nserial  %+v", batched.Metrics, serial.Metrics)
	}
	if !reflect.DeepEqual(batched, serial) {
		t.Error("run results diverge beyond summarized fields (series or histograms)")
	}
	if !reflect.DeepEqual(b.m.PageCounts(), s.m.PageCounts()) {
		t.Error("ground-truth page counts diverge")
	}
	if !reflect.DeepEqual(b.trajectory, s.trajectory) {
		t.Error("clock trajectory diverges at a policy tick")
	}
	if !bytes.Equal(b.trace, s.trace) || !bytes.Equal(b.metrics, s.metrics) {
		t.Error("telemetry exports diverge")
	}
	if b.hookEvents != s.hookEvents {
		t.Errorf("miss hook events: batched %d serial %d", b.hookEvents, s.hookEvents)
	}
}

// TestBatchSerialEquivalence is the differential proof that Run's blocks of N
// are bit-identical to refRun's one op at a time: same seeded run, same
// policy churn, compared field by field including histograms, series, the
// clock at every tick and the telemetry exports — also with a CM-style or
// a PEBS-style miss hook charging latency inside the blocks, and with the
// tick hook stopping the run at its first tick (inside warm-up) or its fifth.
func TestBatchSerialEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	t.Parallel()
	rc := RunConfig{DurationNs: 8e8, WindowNs: 1e8, WarmupNs: 3e8}
	for _, tc := range []struct {
		name   string
		mode   SlowMemMode
		hook   missHook
		stopAt int
	}{
		{"emulated", EmulatedFault, nil, 0},
		{"device", Device, nil, 0},
		{"emulated+cm-hook", EmulatedFault, cmStyleHook, 0},
		{"device+pebs-hook", Device, pebsStyleHook, 0},
		{"stop-at-tick-1", EmulatedFault, nil, 1},
		{"stop-at-tick-5", Device, nil, 5},
	} {
		batched, serial := runPair(t, rc, tc.mode, tc.hook, tc.stopAt)
		checkRunPairEqual(t, batched, serial)
		if want := tc.stopAt; want > 0 && (len(batched.trajectory) != want || batched.res.DurationNs >= rc.DurationNs) {
			t.Errorf("%s: run went on past its stop: %d ticks over %d ns", tc.name, len(batched.trajectory), batched.res.DurationNs)
		}
		if len(batched.trajectory) == 0 || len(batched.trace) == 0 {
			t.Errorf("%s: no ticks or no trace recorded — differential run too weak", tc.name)
		}
		// The churn first demotes at the first tick, so a run stopped
		// there has had no slow page to fault on.
		if tc.stopAt != 1 && batched.res.Metrics.PoisonFaults == 0 {
			t.Errorf("%s: no poison faults — differential run not exercising the fault path", tc.name)
		}
		if tc.hook != nil && batched.hookEvents == 0 {
			t.Errorf("%s: the miss hook never charged — differential run not exercising it", tc.name)
		}
	}
}

// TestMissHookOverBoundFails: a hook that charges more than its declared
// maximum would break block exactness silently, so the access fails with an
// error naming both the charge and the bound, and the run with it.
func TestMissHookOverBoundFails(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	m.SetMissHook(func(addr.Virt, bool) int64 { return 250 }, 200)
	app := &uniformApp{name: "over-bound", size: 2 << 20, huge: true, r: rng.New(5), compute: 100}
	_, err := Run(m, app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 1e8})
	if err == nil || !strings.Contains(err.Error(), "charged 250 ns") || !strings.Contains(err.Error(), "bound of 200 ns") {
		t.Fatalf("Run with an over-bound miss hook: err = %v, want one naming the 250 ns charge and the 200 ns bound", err)
	}
}

// shortApp is uniformApp with a NextBatch that fills one request fewer
// than asked.
type shortApp struct{ *uniformApp }

func (a shortApp) NextBatch(reqs []Req) int { return a.uniformApp.NextBatch(reqs) - 1 }

// TestRunShortBatchFails: an app whose NextBatch comes back short fails the
// run with an error that names it, rather than running on a stream with a
// hole in it.
func TestRunShortBatchFails(t *testing.T) {
	t.Parallel()
	app := shortApp{&uniformApp{name: "short-drawer", size: 2 << 20, huge: true, r: rng.New(4), compute: 100}}
	_, err := Run(newMachine(t), app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 1e9})
	if err == nil || !strings.Contains(err.Error(), "short-drawer") || !strings.Contains(err.Error(), "NextBatch") {
		t.Fatalf("Run with a short NextBatch: err = %v, want an error naming short-drawer's NextBatch", err)
	}
}

// TestBlockOps pins the Scheduler's block-size arithmetic:
// n-1 ops at the per-op bound end strictly before the limit, a due limit is
// a block of one, the MaxBlockOps cap takes precedence where it binds, and
// a miss hook's declared bound widens the per-op bound instead of forcing
// blocks of one.
func TestBlockOps(t *testing.T) {
	t.Parallel()
	const now, u = 1000, 100
	for _, tc := range []struct {
		name  string
		limit int64
		// hookMaxNs, when set, installs a miss hook with this bound, which
		// widens U by hookMaxNs/threads.
		hookMaxNs int64
		want      int
	}{
		{name: "limit far behind", limit: now - 5*u, want: 1},
		{name: "limit at now", limit: now, want: 1},
		{name: "limit one past now", limit: now + 1, want: 1},
		{name: "gap just below U", limit: now + u - 1, want: 1},
		{name: "gap at U", limit: now + u, want: 1},
		{name: "gap just above U", limit: now + u + 1, want: 2},
		{name: "gap just below 7U", limit: now + 7*u - 1, want: 7},
		{name: "gap at 7U", limit: now + 7*u, want: 7},
		{name: "gap just above 7U", limit: now + 7*u + 1, want: 8},
		{name: "one short of the cap", limit: now + (MaxBlockOps-1)*u, want: MaxBlockOps - 1},
		{name: "at the cap", limit: now + (MaxBlockOps-1)*u + 1, want: MaxBlockOps},
		{name: "capped", limit: now + 1e12, want: MaxBlockOps},
		// A bound of U·threads doubles U, so the 8 of "gap just above 7U"
		// become (7U)/(2U) + 1 = 4.
		{name: "miss hook widens U", limit: now + 7*u + 1, hookMaxNs: u * threads, want: 4},
	} {
		m := newMachine(t)
		m.AdvanceClockTo(now)
		adv := int64(u)
		if tc.hookMaxNs > 0 {
			bare := m.maxOpAdvanceNs(0)
			m.SetMissHook(func(addr.Virt, bool) int64 { return 0 }, tc.hookMaxNs)
			adv += m.maxOpAdvanceNs(0) - bare
		}
		if got := m.blockOps(tc.limit, adv); got != tc.want {
			t.Errorf("%s: blockOps(%d, %d) at clock %d = %d, want %d",
				tc.name, tc.limit, adv, now, got, tc.want)
		}
		// The defining property, where nothing else binds: n-1 ops at the
		// bound stay short of the limit and one more would not.
		if tc.limit > now && tc.want < MaxBlockOps {
			n := int64(tc.want)
			if (n-1)*adv >= tc.limit-now || n*adv < tc.limit-now {
				t.Errorf("%s: n = %d is not the largest with (n-1)*U < limit-now", tc.name, n)
			}
		}
	}
}

// TestPageCountsRegression pins the dense-counter PageCounts against the
// original map semantics: counts key on 2MB bases, record LLC misses only,
// and include the below-base map fallback.
func TestPageCountsRegression(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	if m.PageCounts() != nil {
		t.Fatal("PageCounts non-nil before EnablePageCounts")
	}
	m.EnablePageCounts()
	r, err := m.AllocRegion(6<<20, true) // three huge pages
	if err != nil {
		t.Fatal(err)
	}
	base := r.Start.Base2M()

	// Touch distinct cache lines: every first touch is an LLC miss and must
	// count; a second touch of the same line hits and must not.
	want := map[addr.Virt]uint64{}
	for page := 0; page < 3; page++ {
		pb := base + addr.Virt(uint64(page)*addr.PageSize2M)
		for line := 0; line < 10*(page+1); line++ {
			v := pb + addr.Virt(uint64(line)*64)
			if _, err := m.Access(v, false); err != nil {
				t.Fatal(err)
			}
			want[pb]++
		}
	}
	if _, err := m.Access(base, false); err != nil { // cached line: no miss
		t.Fatal(err)
	}
	if got := m.PageCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PageCounts = %v, want %v", got, want)
	}

	// Below-base addresses (never produced by AllocRegion) still count via
	// the map fallback with identical key semantics.
	low := virtBase - addr.Virt(4*addr.PageSize2M)
	frame, err := m.Memory().Tier(mem.Fast).Alloc2M()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.PageTable().Map2M(low, frame, pagetable.Writable); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(low+128, true); err != nil {
		t.Fatal(err)
	}
	want[low] = 1
	if got := m.PageCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PageCounts with low page = %v, want %v", got, want)
	}

}
