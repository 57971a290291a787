package sim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermostat/internal/addr"
	"thermostat/internal/badgertrap"
	"thermostat/internal/pool"
	"thermostat/internal/rng"
)

// faultKind is what a faultyApp does at its chosen NextBatch call.
type faultKind int

const (
	drawsWell faultKind = iota
	drawsShort
	drawsUnmapped
	drawsPoisoned
	drawPanics
	tickFails
)

// faultyApp is uniformApp that goes wrong at its at-th NextBatch call, at
// the request of stream index bad (drawsUnmapped, drawsPoisoned), or at its
// first tick (tickFails). A call after the first is drawn ahead, on the
// producer, whenever the run draws ahead at all.
type faultyApp struct {
	*uniformApp
	kind  faultKind
	at    int
	calls int
	// bad is the stream index of the request that drawsUnmapped and
	// drawsPoisoned replace by badV (0, unmapped, unless a test sets it);
	// badAhead is set when it was drawn on the producer.
	bad      int
	drawn    int
	badV     addr.Virt
	badAhead bool
}

// errTick is the tick failure tickFails returns.
var errTick = errors.New("tick failed on purpose")

func (a *faultyApp) NextBatch(reqs []Req) int {
	n := a.uniformApp.NextBatch(reqs)
	if i := a.bad - a.drawn; i >= 0 && i < n && (a.kind == drawsUnmapped || a.kind == drawsPoisoned) {
		reqs[i].V = a.badV
		a.badAhead = onProducer()
	}
	a.drawn += n
	if a.calls++; a.calls != a.at {
		return n
	}
	switch a.kind {
	case drawsShort:
		return n - 1
	case drawPanics:
		panic("NextBatch panicked on purpose")
	}
	return n
}

func (a *faultyApp) Tick(m *Machine, now int64) error {
	if a.kind == tickFails {
		return errTick
	}
	return a.uniformApp.Tick(m, now)
}

func newFaultyApp(kind faultKind) *faultyApp {
	return &faultyApp{
		uniformApp: &uniformApp{name: "faulty", size: 4 << 20, huge: true, r: rng.New(9), compute: 500},
		kind:       kind, at: 3,
		// The middle of the third call when blocks are full.
		bad: 2*MaxBlockOps + MaxBlockOps/2,
	}
}

// onProducer reports whether it is called on a Scheduler's producer.
func onProducer() bool {
	var stack [4096]byte
	return bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("sim.produce("))
}

// runningPipeline counts the goroutines running a Scheduler's producer and
// its translator.
func runningPipeline() (producers, translators int) {
	buf := make([]byte, 1<<20)
	all := buf[:runtime.Stack(buf, true)]
	return bytes.Count(all, []byte("sim.produce(")), bytes.Count(all, []byte("sim.translateAhead("))
}

// aheadSpy counts its app's NextBatch calls that run on a Scheduler's
// producer, so a test can tell a run that drew ahead from one that did not.
// A non-nil translator is set once one of those calls sees a translator
// running beside it.
type aheadSpy struct {
	App
	ahead      *int
	translator *bool
}

func (a aheadSpy) NextBatch(reqs []Req) int {
	if onProducer() {
		*a.ahead++
		if a.translator != nil && !*a.translator {
			_, n := runningPipeline()
			*a.translator = n > 0
		}
	}
	return a.App.NextBatch(reqs)
}

// requireGoroutinesSettle fails unless the goroutine count falls back to
// base and no goroutine runs a producer or a translator: one that
// outlives its run would hold them up.
func requireGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p, x := runningPipeline()
		if runtime.NumGoroutine() <= base && p+x == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before, %d producers and %d translators: a producer or translator outlived its Scheduler", runtime.NumGoroutine(), base, p, x)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunStopsProducer: sim.Run leaves neither producer nor translator
// behind, whether it ends at its duration, at ErrStopRun, or early on an
// access error (met by the translator), a short draw or a tick error, the
// faults of the first three drawn ahead. Each run must have drawn ahead
// with both alive, or the test would pass without them. Not parallel: it
// counts the process's goroutines.
func TestRunStopsProducer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    faultKind
		stop    bool
		wantErr string
	}{
		{name: "duration", kind: drawsWell},
		{name: "stop-run", kind: drawsWell, stop: true},
		{name: "access-error", kind: drawsUnmapped, wantErr: "faulty op"},
		{name: "short-draw", kind: drawsShort, wantErr: "sim: faulty NextBatch drew 2047 of 2048 requests"},
		{name: "tick-error", kind: tickFails, wantErr: errTick.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			m := newMachine(t)
			rc := RunConfig{DurationNs: 4e8}
			if tc.stop {
				rc.TickHook = func(int64) error { return ErrStopRun }
			}
			ahead, translator := 0, false
			res, err := Run(m, aheadSpy{newFaultyApp(tc.kind), &ahead, &translator}, NullPolicy{Interval: 1e8}, rc)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
			case tc.stop && res.DurationNs >= rc.DurationNs:
				t.Fatalf("ErrStopRun at the first tick, but the run lasted %d ns", res.DurationNs)
			}
			if ahead == 0 {
				t.Fatal("the run drew no block ahead")
			}
			if !translator {
				t.Fatal("no translator ran beside the producer")
			}
			requireGoroutinesSettle(t, base)
		})
	}
}

// TestDrawnAheadPanicReachesPool: a panic in a NextBatch drawn on the
// producer is raised again on the simulation goroutine, so pool.Map's
// containment reports it as the task's PanicError. Its value is an
// AheadPanic carrying the app's value and the producer's stack, which
// names the app's frame that panicked; and the producer and the translator
// are gone once Map returns. Not parallel: it counts the process's
// goroutines.
func TestDrawnAheadPanicReachesPool(t *testing.T) {
	base, ahead := runtime.NumGoroutine(), 0
	_, err := pool.Map(1, []pool.Task[*RunResult]{{Label: "panicky", Run: func() (*RunResult, error) {
		app := aheadSpy{App: newFaultyApp(drawPanics), ahead: &ahead}
		return Run(newMachine(t), app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 4e8})
	}}})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a pool.PanicError", err)
	}
	dp, ok := pe.Value.(*AheadPanic)
	if !ok || dp.Goroutine != "producer" || dp.Value != "NextBatch panicked on purpose" {
		t.Fatalf("panic value %#v, want an AheadPanic carrying the app's value", pe.Value)
	}
	const frame = "(*faultyApp).NextBatch("
	if !bytes.Contains(dp.Stack, []byte(frame)) || !strings.Contains(err.Error(), frame) {
		t.Fatalf("neither the AheadPanic's stack nor the report names %s:\n%s", frame, err)
	}
	if ahead == 0 {
		t.Fatal("the run drew no block ahead: the panic was not on the producer")
	}
	requireGoroutinesSettle(t, base)
}

// TestTranslatedAheadPanicReachesPool: a panic in translation on the
// translator reaches pool.Map the same way, as an AheadPanic whose stack
// names the translator's frames. The panic is a nil dereference in
// BadgerTrap's handler, whose trap is swapped for one without a page table
// once a page is poisoned; only the app's bad request touches that page,
// and it is drawn ahead. Not parallel: it counts the process's goroutines.
func TestTranslatedAheadPanicReachesPool(t *testing.T) {
	base := runtime.NumGoroutine()
	app := newFaultyApp(drawsPoisoned)
	_, err := pool.Map(1, []pool.Task[*RunResult]{{Label: "panicky", Run: func() (*RunResult, error) {
		m := newMachine(t)
		r, err := m.AllocRegion(2<<20, true)
		if err != nil {
			return nil, err
		}
		if err := m.Trap().Poison(r.Start, m.VPID()); err != nil {
			return nil, err
		}
		m.trap = badgertrap.New(nil, m.tl, 0)
		app.badV = r.Start
		return Run(m, app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 4e8})
	}}})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a pool.PanicError", err)
	}
	ap, ok := pe.Value.(*AheadPanic)
	if !ok || ap.Goroutine != "translator" {
		t.Fatalf("panic value %#v, want an AheadPanic from the translator", pe.Value)
	}
	for _, frame := range []string{"sim.translateAhead(", "(*Machine).translate(", "(*Trap).Handle("} {
		if !bytes.Contains(ap.Stack, []byte(frame)) || !strings.Contains(err.Error(), frame) {
			t.Fatalf("neither the AheadPanic's stack nor the report names %s:\n%s", frame, err)
		}
	}
	if !app.badAhead {
		t.Fatal("the poisoned request was not drawn ahead")
	}
	requireGoroutinesSettle(t, base)
}

// TestTranslateErrorAheadNamesSameOp: an unmapped request fails the run
// naming the same member and op, and leaves the same machine, as when every
// block is one op: met by the translator in a block drawn ahead, or in the
// first block, translated inline before any block is handed over. The two
// members' shares are 3 and 1, so their spans interleave within each block
// and each names its own op count.
func TestTranslateErrorAheadNamesSameOp(t *testing.T) {
	t.Parallel()
	const never = int64(1) << 60
	run := func(bad int, limit func(*Machine) int64) (Metrics, bool, error) {
		m := newMachine(t)
		s := NewScheduler(m, RunConfig{DurationNs: never, WindowNs: never}, "pair", "none", nil)
		defer s.Stop()
		faulty := newFaultyApp(drawsUnmapped)
		faulty.bad = bad
		apps := []App{&uniformApp{name: "good", size: 4 << 20, huge: true, r: rng.New(3), compute: 500}, faulty}
		for i, app := range apps {
			if err := app.Init(m); err != nil {
				t.Fatal(err)
			}
			s.Add(app.Name(), app, NullPolicy{Interval: never}, 3-2*i)
			s.Join(i)
		}
		for {
			if err := s.Block(limit(m)); err != nil {
				return m.Metrics(), faulty.badAhead, err
			}
		}
	}
	for _, tc := range []struct {
		name  string
		bad   int
		ahead bool
	}{
		{"first-block", 100, false},
		{"drawn-ahead", 10 * MaxBlockOps / 4, true},
	} {
		met, ahead, err := run(tc.bad, func(*Machine) int64 { return never })
		wantMet, _, wantErr := run(tc.bad, (*Machine).Clock)
		if ahead != tc.ahead {
			t.Fatalf("%s: the unmapped request drawn ahead: %v", tc.name, ahead)
		}
		if err.Error() != wantErr.Error() || !strings.Contains(err.Error(), fmt.Sprintf("sim: faulty op %d: sim: access to unmapped", tc.bad)) {
			t.Fatalf("%s: in blocks: %v\nop by op: %v", tc.name, err, wantErr)
		}
		if !reflect.DeepEqual(met, wantMet) {
			t.Fatalf("%s: the machine differs after the failure:\n%+v\n%+v", tc.name, met, wantMet)
		}
	}
}

// TestChurnOffBoundaryPanics: Join, Leave and Tick between blocks that
// drew ahead panic rather than let the drawn blocks issue the old
// interleave, or Tick run beside a NextBatch on the producer.
func TestChurnOffBoundaryPanics(t *testing.T) {
	t.Parallel()
	m := newMachine(t)
	const never = int64(1) << 60
	s := NewScheduler(m, RunConfig{DurationNs: never, WindowNs: never}, "two", "none", nil)
	defer s.Stop()
	for i := range 2 {
		app := &uniformApp{name: string(rune('a' + i)), size: 4 << 20, huge: true, r: rng.New(uint64(i + 1)), compute: 500}
		if err := app.Init(m); err != nil {
			t.Fatal(err)
		}
		s.Add(app.name, app, NullPolicy{Interval: never}, 1)
	}
	s.Join(0)
	if err := s.Block(never); err != nil {
		t.Fatal(err)
	}
	if s.ahead == 0 {
		t.Fatal("the block drew nothing ahead")
	}
	for name, churn := range map[string]func(){
		"Join":  func() { s.Join(1) },
		"Leave": func() { s.Leave(0) },
		"Tick":  func() { _ = s.Tick(0, m.Clock()) },
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "blocks drawn ahead") {
					t.Errorf("%s off a boundary: recovered %v, want the drawn-ahead panic", name, p)
				}
			}()
			churn()
		}()
	}
}

// TestFullAhead pins fullAhead's edges: a block is drawn ahead only when
// every op before its last starts before the limit with a full block's
// worth of bound still in hand, and never more than aheadMax.
func TestFullAhead(t *testing.T) {
	t.Parallel()
	const u, full = 100, MaxBlockOps
	for _, tc := range []struct {
		name string
		gap  int64
		n    int
		want int
	}{
		{"due", 0, 1, 0},
		{"short", 1000, 10, 0},
		// ⌊(gap−1)/u⌋ − n = full−2: the next block could end short.
		{"one-short", (2*full - 1) * u, full, 0},
		// rem = full−1: the next block is full, and this one ends short
		// of the limit.
		{"one", (2*full-1)*u + 1, full, 1},
		{"one-below-two", (3*full - 1) * u, full, 1},
		{"two", (3*full-1)*u + 1, full, 2},
		{"capped", 100 * full * u, full, aheadMax},
		{"small-block", full*u + 1, 1, 1},
	} {
		if got := fullAhead(tc.gap, u, tc.n); got != tc.want {
			t.Errorf("%s: fullAhead(%d, %d, %d) = %d, want %d", tc.name, tc.gap, u, tc.n, got, tc.want)
		}
	}
}
