package sim_test

import (
	"reflect"
	"runtime"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/harness"
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
// config applied to its machine config, and returns the result and how
// many of the app's NextBatch calls ran on a producer.
func runRedisTiny(t *testing.T, loop func(*sim.Machine, sim.App, sim.Policy, sim.RunConfig) (*sim.RunResult, error),
	config func(*sim.Config)) (*sim.RunResult, int) {
	t.Helper()
	sc := harness.Tiny()
	a, err := harness.Assemble(workload.Redis(), sc, harness.Plan{SlowdownPct: 3, Config: config})
	if err != nil {
		t.Fatal(err)
	}
	ahead := 0
	res, err := loop(a.Machine, sim.SpyAhead(a.App, &ahead), a.Policy, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, ahead
}

// TestDrawAheadRunIsExact: a run with no caller code on its access path
// draws blocks ahead on the producer and still matches the per-op oracle
// exactly, at GOMAXPROCS 1 (the producer only runs while Block waits for
// it) and 2. The count guards the comparison: a run that drew nothing
// ahead would pass it vacuously. Not parallel: it sets GOMAXPROCS.
func TestDrawAheadRunIsExact(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second differential run")
	}
	want, refAhead := runRedisTiny(t, sim.RefRun, nil)
	if refAhead != 0 {
		t.Fatalf("the per-op oracle drew %d blocks ahead", refAhead)
	}
	for _, procs := range []int{1, 2} {
		var got *sim.RunResult
		var ahead int
		atProcs(procs, func() { got, ahead = runRedisTiny(t, sim.Run, nil) })
		if ahead == 0 {
			t.Fatalf("GOMAXPROCS %d: the run drew no block ahead", procs)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GOMAXPROCS %d: the run differs from the per-op oracle (%d ops, want %d)", procs, got.Ops, want.Ops)
		}
	}
}

// TestDrawAheadOffWithCallerCode: a Recorder or a miss hook is caller code
// on the access path, which may share state with the app's NextBatch (a
// tracing decorator does), so a run with either draws every block on the
// simulation goroutine.
func TestDrawAheadOffWithCallerCode(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	recorded := func(cfg *sim.Config) { cfg.Recorder = telemetry.NewCollector() }
	if _, ahead := runRedisTiny(t, sim.Run, recorded); ahead != 0 {
		t.Errorf("with a Recorder the run drew %d blocks ahead", ahead)
	}
	hooked := func(m *sim.Machine, app sim.App, pol sim.Policy, rc sim.RunConfig) (*sim.RunResult, error) {
		m.SetMissHook(func(addr.Virt, bool) int64 { return 0 }, 0)
		return sim.Run(m, app, pol, rc)
	}
	if _, ahead := runRedisTiny(t, hooked, nil); ahead != 0 {
		t.Errorf("with a miss hook the run drew %d blocks ahead", ahead)
	}
}
