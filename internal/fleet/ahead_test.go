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

// TestFleetDrawAheadMatchesPerOp: the night cast's blocks are drawn ahead
// on the Scheduler's producer and translated on its translator, and Run
// still matches the per-op oracle (which never works ahead) at GOMAXPROCS 1
// and 2: without a Recorder, and with one and unequal shares, so that every
// block interleaves the tenants' spans and each span's requests start
// part-way into its tenant's draw. Not parallel: it sets GOMAXPROCS.
func TestFleetDrawAheadMatchesPerOp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	for _, tc := range []struct {
		name  string
		build func() *cast
	}{
		{"no-recorder", func() *cast {
			c := nightCast(1)
			c.noRecorder = true
			return c
		}},
		{"unequal-shares", func() *cast {
			c := nightCast(3)
			for i, s := range []int{3, 1, 2, 5} {
				c.tenants[i].share = s
			}
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ahead bool
			build := func() *cast {
				c := tc.build()
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
		})
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
// producer. A non-nil translator is set once one of its first NextBatch
// calls there sees the Scheduler's translator running beside it.
type faultyApp struct {
	core.ScopedApp
	kind       faultKind
	calls      int
	ahead      *bool
	translator *bool
}

var errTick = errors.New("tick failed on purpose")

func (a *faultyApp) NextBatch(reqs []sim.Req) int {
	n := a.ScopedApp.NextBatch(reqs)
	// A run that draws ahead does so from its second block on.
	if (!*a.ahead || a.translator != nil && !*a.translator) && a.calls < 64 {
		var stack [4096]byte
		if bytes.Contains(stack[:runtime.Stack(stack[:], false)], []byte("sim.produce(")) {
			*a.ahead = true
			if a.translator != nil {
				*a.translator = running("sim.translateAhead(")
			}
		}
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

// running reports whether some goroutine's stack has frame.
func running(frame string) bool {
	buf := make([]byte, 1<<20)
	return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte(frame))
}

func (a *faultyApp) Tick(m *sim.Machine, now int64) error {
	if a.kind == tickFails {
		return errTick
	}
	return a.ScopedApp.Tick(m, now)
}

// TestFleetRunStopsProducer: fleet.Run leaves neither producer nor
// translator behind when it returns early on an access error (met by the
// translator), a short draw or a tick error. Each run must have drawn on a
// producer with the translator alive, or the test would pass without
// them. Not parallel: it counts the process's goroutines.
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
			base, ahead, translator := runtime.NumGoroutine(), false, false
			c := smallCast(0, 0)
			c.noRecorder = true
			c.wrap = func(app core.ScopedApp) core.ScopedApp {
				return &faultyApp{ScopedApp: app, kind: tc.kind, ahead: &ahead, translator: &translator}
			}
			out := c.run(t, Run)
			if out.err == nil || !strings.Contains(out.err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want one containing %q", out.err, tc.wantErr)
			}
			if !ahead {
				t.Fatal("no NextBatch ran on the producer")
			}
			if !translator {
				t.Fatal("no translator ran beside the producer")
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base || running("sim.produce(") || running("sim.translateAhead(") {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before: a producer or translator outlived fleet.Run", runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
