package sim_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/counter"
	"thermostat/internal/harness"
	"thermostat/internal/pagetable"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// atProcs runs f with GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// runRedisTiny runs the tiny-scale Thermostat redis run through loop, with
// config applied to its machine config. A non-nil ahead counts the app's
// NextBatch calls that ran on a producer; the count reads each call's
// stack, which would dominate a run through the per-op oracle.
func runRedisTiny(t *testing.T, loop func(*sim.Machine, sim.App, sim.Policy, sim.RunConfig) (*sim.RunResult, error),
	config func(*sim.Config), ahead *int) *sim.RunResult {
	t.Helper()
	sc := harness.Tiny()
	a, err := harness.Assemble(workload.Redis(), sc, harness.Plan{SlowdownPct: 3, Config: config})
	if err != nil {
		t.Fatal(err)
	}
	var app sim.App = a.App
	if ahead != nil {
		app = sim.SpyAhead(app, ahead)
	}
	res, err := loop(a.Machine, app, a.Policy, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDrawAheadRunIsExact: a run with no caller code on its access path
// draws blocks ahead on the producer and translates them on the translator,
// and still matches the per-op oracle exactly, at GOMAXPROCS 1 (the
// producer and the translator only run while Block waits for them) and 2.
// The count guards the comparison: a run that drew nothing ahead would
// pass it vacuously. The oracle never calls Block, so it runs unspied. Not
// parallel: it sets GOMAXPROCS.
func TestDrawAheadRunIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	want := runRedisTiny(t, sim.RefRun, nil, nil)
	for _, procs := range []int{1, 2} {
		var got *sim.RunResult
		var ahead int
		atProcs(procs, func() { got = runRedisTiny(t, sim.Run, nil, &ahead) })
		if ahead == 0 {
			t.Fatalf("GOMAXPROCS %d: the run drew no block ahead", procs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: the run differs from the per-op oracle (%d ops, want %d)", procs, got.Ops, want.Ops)
		}
	}
}

// TestDrawAheadWithRecorderIsExact: a Recorder does not keep a run from
// drawing ahead, since the access path stages its events on the Machine
// and the Scheduler hands them over only between blocks with nothing drawn
// ahead. The run still matches the per-op oracle, which hands each event
// over as it happens, in its result, in every event and snapshot the
// Collector holds, and byte for byte in both exports, at GOMAXPROCS 1 and
// 2. Not parallel: it sets GOMAXPROCS.
func TestDrawAheadWithRecorderIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	run := func(loop func(*sim.Machine, sim.App, sim.Policy, sim.RunConfig) (*sim.RunResult, error), ahead *int) (*sim.RunResult, *telemetry.Collector) {
		col := telemetry.NewCollector()
		return runRedisTiny(t, loop, func(cfg *sim.Config) { cfg.Recorder = col }, ahead), col
	}
	want, wantCol := run(sim.RefRun, nil)
	wantTrace, wantJSONL := exports(t, wantCol)
	if faultEvents(wantCol) == 0 {
		t.Fatal("the oracle recorded no access-path event: the comparison would not cover staging")
	}
	for _, procs := range []int{1, 2} {
		var got *sim.RunResult
		var col *telemetry.Collector
		var ahead int
		atProcs(procs, func() { got, col = run(sim.Run, &ahead) })
		if ahead == 0 {
			t.Fatalf("GOMAXPROCS %d: with a Recorder the run drew no block ahead", procs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: the run differs from the per-op oracle (%d ops, want %d)", procs, got.Ops, want.Ops)
		}
		if !reflect.DeepEqual(col.Events(), wantCol.Events()) {
			t.Fatalf("GOMAXPROCS %d: %d events, the oracle %d, or they differ", procs, len(col.Events()), len(wantCol.Events()))
		}
		if !reflect.DeepEqual(col.Snapshots(), wantCol.Snapshots()) {
			t.Fatalf("GOMAXPROCS %d: the epoch snapshots differ from the oracle's", procs)
		}
		trace, jsonl := exports(t, col)
		if !bytes.Equal(trace, wantTrace) || !bytes.Equal(jsonl, wantJSONL) {
			t.Fatalf("GOMAXPROCS %d: the exports differ from the oracle's", procs)
		}
	}
}

// faultEvents counts col's access-path events.
func faultEvents(col *telemetry.Collector) int {
	n := 0
	for _, e := range col.Events() {
		if e.Kind == telemetry.KindFaultInjected {
			n++
		}
	}
	return n
}

// exports returns col's Chrome trace and JSONL metrics.
func exports(t *testing.T, col *telemetry.Collector) (trace, jsonl []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := col.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

// cmBitPolicy is a policy that first installs the CM-bit model on the
// machine's miss path and arms every 8th mapped 2MB page, as the §6.1
// counters ablation does, then attaches the policy it wraps.
type cmBitPolicy struct {
	sim.Policy
	cm    *counter.CMBit
	armed []addr.Virt
}

func (p *cmBitPolicy) Attach(m *sim.Machine) error {
	p.cm = counter.NewCMBit(m)
	var pages []addr.Virt
	m.PageTable().Scan(func(base addr.Virt, _ *pagetable.PTE, _ pagetable.Level) {
		if b := base.Base2M(); len(pages) == 0 || pages[len(pages)-1] != b {
			pages = append(pages, b)
		}
	})
	for i := 0; i < len(pages); i += 8 {
		if err := p.cm.Arm(pages[i]); err != nil {
			return err
		}
		p.armed = append(p.armed, pages[i])
	}
	return p.Policy.Attach(m)
}

// TestDrawAheadWithMissHookIsExact: a miss hook runs inside charge and
// shares no state with the app or with translation, so a run with the CM
// bit on its miss path still draws and translates blocks ahead, and
// matches the per-op oracle under the same hook, in its result and in
// every armed page's count, at GOMAXPROCS 1 and 2. Under -race a hook that
// touched what the producer or the translator writes would be a reported
// race. Not parallel: it sets GOMAXPROCS.
func TestDrawAheadWithMissHookIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	run := func(loop func(*sim.Machine, sim.App, sim.Policy, sim.RunConfig) (*sim.RunResult, error), ahead *int) (*sim.RunResult, []uint64) {
		var pol *cmBitPolicy
		hooked := func(m *sim.Machine, app sim.App, p sim.Policy, rc sim.RunConfig) (*sim.RunResult, error) {
			pol = &cmBitPolicy{Policy: p}
			return loop(m, app, pol, rc)
		}
		res := runRedisTiny(t, hooked, nil, ahead)
		counts := make([]uint64, len(pol.armed))
		for i, base := range pol.armed {
			counts[i] = pol.cm.Count(base)
		}
		return res, counts
	}
	want, wantCounts := run(sim.RefRun, nil)
	var counted uint64
	for _, c := range wantCounts {
		counted += c
	}
	if counted == 0 {
		t.Fatal("the oracle's CM bit counted no miss: the comparison would not cover the hook")
	}
	for _, procs := range []int{1, 2} {
		var got *sim.RunResult
		var counts []uint64
		var ahead int
		atProcs(procs, func() { got, counts = run(sim.Run, &ahead) })
		if ahead == 0 {
			t.Fatalf("GOMAXPROCS %d: with a miss hook the run drew no block ahead", procs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: the run differs from the per-op oracle (%d ops, want %d)", procs, got.Ops, want.Ops)
		}
		if !reflect.DeepEqual(counts, wantCounts) {
			t.Fatalf("GOMAXPROCS %d: the CM bit's per-page counts differ from the oracle's", procs)
		}
	}
}

// sharedTracer is the shape of a tracing harness: one tracer that an App
// decorator and a Recorder decorator both write, with no lock. calls is the
// unsynchronized counter the race detector watches; drawing is set, with
// atomics, while a NextBatch runs, so that a Recorder call beside one is
// seen without the race detector too.
type sharedTracer struct {
	calls    int
	drawing  atomic.Bool
	overlaps atomic.Int64
}

type tracedApp struct {
	sim.App
	tr *sharedTracer
}

func (a tracedApp) NextBatch(reqs []sim.Req) int {
	a.tr.drawing.Store(true)
	a.tr.calls++
	n := a.App.NextBatch(reqs)
	a.tr.drawing.Store(false)
	return n
}

type tracedRecorder struct {
	telemetry.Recorder
	tr *sharedTracer
}

func (r tracedRecorder) Event(e telemetry.Event) {
	if r.tr.drawing.Load() {
		r.tr.overlaps.Add(1)
	}
	r.tr.calls++
	r.Recorder.Event(e)
}

func (r tracedRecorder) Snapshot(s telemetry.Snapshot) {
	if r.tr.drawing.Load() {
		r.tr.overlaps.Add(1)
	}
	r.tr.calls++
	r.Recorder.Snapshot(s)
}

// TestRecorderNeverBesideProducer pins what a tracing harness relies on: a
// run with a Recorder draws blocks ahead, yet the Recorder is never called
// while the producer draws, so an App decorator and a Recorder decorator
// may share a tracer without a lock. Under -race an overlap is a reported
// race on the shared counter; without it, the atomic flag counts it.
func TestRecorderNeverBesideProducer(t *testing.T) {
	sc := harness.Tiny()
	col := telemetry.NewCollector()
	tr := &sharedTracer{}
	a, err := harness.Assemble(workload.Redis(), sc, harness.Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = tracedRecorder{col, tr} }})
	if err != nil {
		t.Fatal(err)
	}
	ahead := 0
	app := sim.SpyAhead(tracedApp{a.App, tr}, &ahead)
	if _, err := sim.Run(a.Machine, app, a.Policy, sim.RunConfig{DurationNs: 2e9, WindowNs: sc.PeriodNs}); err != nil {
		t.Fatal(err)
	}
	if ahead == 0 {
		t.Fatal("the run drew no block ahead")
	}
	if faultEvents(col) == 0 {
		t.Fatal("the run recorded no access-path event")
	}
	if n := tr.overlaps.Load(); n != 0 {
		t.Fatalf("the Recorder was called %d times while a NextBatch ran", n)
	}
}

// probingPolicy reads, at every tick, what translation writes: the TLB's
// counters, BadgerTrap's fault counts and every leaf's A/D bits. seen sums
// what it read, so a run that never touched that state shows.
type probingPolicy struct {
	sim.Policy
	ticks int
	seen  uint64
}

func (p *probingPolicy) Tick(m *sim.Machine, now int64) error {
	p.ticks++
	p.seen += m.TLB().Stats().Lookups() + m.Trap().TotalFaults()
	m.PageTable().Scan(func(base addr.Virt, e *pagetable.PTE, _ pagetable.Level) {
		if e.Has(pagetable.Accessed) || e.Has(pagetable.Dirty) {
			p.seen++
		}
		p.seen += m.Trap().CountLeaf(base)
	})
	return p.Policy.Tick(m, now)
}

// TestTranslatorNeverBesideTicks pins what makes translating ahead exact:
// a run translates blocks ahead on the translator, yet a policy that reads
// the TLB, the trap and the page table at every tick never reads them
// while the translator writes them. Under -race a tick beside the
// translator is a reported race.
func TestTranslatorNeverBesideTicks(t *testing.T) {
	sc := harness.Tiny()
	a, err := harness.Assemble(workload.Redis(), sc, harness.Plan{SlowdownPct: 3})
	if err != nil {
		t.Fatal(err)
	}
	ahead := 0
	pol := &probingPolicy{Policy: a.Policy}
	if _, err := sim.Run(a.Machine, sim.SpyAhead(a.App, &ahead), pol, sim.RunConfig{DurationNs: 2e9, WindowNs: sc.PeriodNs}); err != nil {
		t.Fatal(err)
	}
	if ahead == 0 {
		t.Fatal("the run drew, and so translated, no block ahead")
	}
	if pol.ticks == 0 || pol.seen == 0 {
		t.Fatalf("the probe ticked %d times and read %d: it covered nothing", pol.ticks, pol.seen)
	}
}
