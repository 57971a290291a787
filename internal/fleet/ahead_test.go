package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"thermostat/internal/core"
	"thermostat/internal/sim"
)

// atProcs runs f with GOMAXPROCS set to procs, restoring it after.
func atProcs(procs int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
}

// TestFleetDrawAheadMatchesPerOp: with no Recorder the night cast's blocks
// are drawn ahead on the Scheduler's producer, and Run still matches the
// per-op oracle (which never draws ahead) at GOMAXPROCS 1 and 2. Not
// parallel: it sets GOMAXPROCS.
func TestFleetDrawAheadMatchesPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	var ahead bool
	build := func() *cast {
		c := nightCast(1)
		c.noRecorder = true
		c.wrap = func(app core.ScopedApp) core.ScopedApp { return &faultyApp{ScopedApp: app, ahead: &ahead} }
		return c
	}
	want := build().run(t, refRun)
	if want.err != nil {
		t.Fatal(want.err)
	}
	if ahead {
		t.Fatal("the per-op oracle drew on the producer")
	}
	for _, procs := range []int{1, 2} {
		atProcs(procs, func() { requireSameRun(t, build().run(t, Run), want) })
	}
	if !ahead {
		t.Fatal("no NextBatch ran on the producer")
	}
}

// faultKind is what a faultyApp does at its third NextBatch call, which a
// run drawing ahead draws on the producer.
type faultKind int

const (
	drawsWell faultKind = iota
	drawsShort
	drawsUnmapped
	tickFails
)

// faultyApp goes wrong at its third NextBatch call, or at its first tick
// for tickFails, and sets ahead once a NextBatch runs on the Scheduler's
// producer.
type faultyApp struct {
	core.ScopedApp
	kind  faultKind
	calls int
	ahead *bool
}

var errTick = errors.New("tick failed on purpose")

func (a *faultyApp) NextBatch(reqs []sim.Req) int {
	n := a.ScopedApp.NextBatch(reqs)
	// A run that draws ahead does so from its second block on.
	if !*a.ahead && a.calls < 64 {
		var stack [4096]byte
		*a.ahead = bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("sim.produce("))
	}
	if a.calls++; a.calls != 3 {
		return n
	}
	switch a.kind {
	case drawsShort:
		return n - 1
	case drawsUnmapped:
		reqs[0].V = 0
	}
	return n
}

func (a *faultyApp) Tick(m *sim.Machine, now int64) error {
	if a.kind == tickFails {
		return errTick
	}
	return a.ScopedApp.Tick(m, now)
}

// TestFleetRunStopsProducer: fleet.Run leaves no producer behind when it
// returns early on an access error, a short draw or a tick error. Each run
// must have drawn on a producer, or the test would pass without one. Not
// parallel: it counts the process's goroutines.
func TestFleetRunStopsProducer(t *testing.T) {
	for _, tc := range []struct {
		name    string
		kind    faultKind
		wantErr string
	}{
		{"access-error", drawsUnmapped, "small op"},
		{"short-draw", drawsShort, "sim: small NextBatch drew 2047 of 2048 requests"},
		{"tick-error", tickFails, errTick.Error()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, ahead := runtime.NumGoroutine(), false
			c := smallCast(0, 0)
			c.noRecorder = true
			c.wrap = func(app core.ScopedApp) core.ScopedApp {
				return &faultyApp{ScopedApp: app, kind: tc.kind, ahead: &ahead}
			}
			out := c.run(t, Run)
			if out.err == nil || !strings.Contains(out.err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", out.err, tc.wantErr)
			}
			if !ahead {
				t.Fatal("no NextBatch ran on the producer")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before: the producer outlived fleet.Run", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
