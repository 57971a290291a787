package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermostat/internal/pool"
	"thermostat/internal/rng"
)

// faultKind is what a faultyApp does at its chosen NextBatch call.
type faultKind int

const (
	drawsWell faultKind = iota
	drawsShort
	drawsUnmapped
	drawPanics
	tickFails
)

// faultyApp is uniformApp that goes wrong at its at-th NextBatch call (or at
// its first tick, for tickFails). A call after the first is drawn ahead, on
// the producer, whenever the run draws ahead at all.
type faultyApp struct {
	*uniformApp
	kind  faultKind
	at    int
	calls int
}

// errTick is the tick failure tickFails returns.
var errTick = errors.New("tick failed on purpose")

func (a *faultyApp) NextBatch(reqs []Req) int {
	n := a.uniformApp.NextBatch(reqs)
	if a.calls++; a.calls != a.at {
		return n
	}
	switch a.kind {
	case drawsShort:
		return n - 1
	case drawsUnmapped:
		reqs[len(reqs)/2].V = 0
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
	}
}

// aheadSpy counts its app's NextBatch calls that run on a Scheduler's
// producer, so a test can tell a run that drew ahead from one that did not.
type aheadSpy struct {
	App
	ahead *int
}

func (a aheadSpy) NextBatch(reqs []Req) int {
	var stack [4096]byte
	if bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("sim.produce(")) {
		*a.ahead++
	}
	return a.App.NextBatch(reqs)
}

// requireGoroutinesSettle fails unless the goroutine count falls back to
// base: a producer that outlives its run would hold it above.
func requireGoroutinesSettle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: a producer outlived its Scheduler", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunStopsProducer: sim.Run leaves no producer behind, whether it ends
// at its duration, at ErrStopRun, or early on an access error, a short
// draw or a tick error, the faults of the first three drawn ahead. Each
// run must have drawn ahead, or the test would pass without a producer.
// Not parallel: it counts the process's goroutines.
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
			ahead := 0
			res, err := Run(m, aheadSpy{newFaultyApp(tc.kind), &ahead}, NullPolicy{Interval: 1e8}, rc)
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
			requireGoroutinesSettle(t, base)
		})
	}
}

// TestDrawnAheadPanicReachesPool: a panic in a NextBatch drawn on the
// producer is raised again on the simulation goroutine, so pool.Map's
// containment reports it as the task's PanicError. Its value is a
// DrawPanic carrying the app's value and the producer's stack, which names
// the app's frame that panicked; and the producer is gone once Map
// returns. Not parallel: it counts the process's goroutines.
func TestDrawnAheadPanicReachesPool(t *testing.T) {
	base, ahead := runtime.NumGoroutine(), 0
	_, err := pool.Map(1, []pool.Task[*RunResult]{{Label: "panicky", Run: func() (*RunResult, error) {
		app := aheadSpy{newFaultyApp(drawPanics), &ahead}
		return Run(newMachine(t), app, NullPolicy{Interval: 1e8}, RunConfig{DurationNs: 4e8})
	}}})
	var pe *pool.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a pool.PanicError", err)
	}
	dp, ok := pe.Value.(*DrawPanic)
	if !ok || dp.Value != "NextBatch panicked on purpose" {
		t.Fatalf("panic value %#v, want a DrawPanic carrying the app's value", pe.Value)
	}
	const frame = "(*faultyApp).NextBatch("
	if !bytes.Contains(dp.Stack, []byte(frame)) || !strings.Contains(err.Error(), frame) {
		t.Fatalf("neither the DrawPanic's stack nor the report names %s:\n%s", frame, err)
	}
	if ahead == 0 {
		t.Fatal("the run drew no block ahead: the panic was not on the producer")
	}
	requireGoroutinesSettle(t, base)
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
