package harness

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"

	"thermostat/internal/pool"
	"thermostat/internal/rng"
	"thermostat/internal/workload"
)

// equivScale is the reduced profile the serial-equivalence differential
// tests run at: every run is cheap, but still exercises sampling, demotion
// and correction.
func equivScale() Scale {
	sc := Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	return sc
}

// TestSerialEquivalenceRunAll is the scheduler's core differential test:
// RunAll with Workers: 1 (the exact old serial path) and Workers: 8 must
// produce reflect.DeepEqual outcomes — every series point, counter, and
// engine stat bit-for-bit identical.
func TestSerialEquivalenceRunAll(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	apps := []workload.Spec{workload.MySQLTPCC(), workload.WebSearch()}
	serial, err := RunAll(Options{Scale: equivScale(), Apps: apps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(Options{Scale: equivScale(), Apps: apps, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("app sets differ: %d vs %d", len(serial), len(parallel))
	}
	for name, s := range serial {
		p, ok := parallel[name]
		if !ok {
			t.Fatalf("%s missing from parallel runs", name)
		}
		if !reflect.DeepEqual(s.Base.Result, p.Base.Result) {
			t.Errorf("%s: baseline results diverge between worker counts", name)
		}
		if !reflect.DeepEqual(s.Thermo.Result, p.Thermo.Result) {
			t.Errorf("%s: thermostat results diverge between worker counts", name)
		}
		if !reflect.DeepEqual(s.Thermo.Engine.Stats(), p.Thermo.Engine.Stats()) {
			t.Errorf("%s: engine stats diverge: %+v vs %+v",
				name, s.Thermo.Engine.Stats(), p.Thermo.Engine.Stats())
		}
		if s.Slowdown != p.Slowdown || s.ColdFraction != p.ColdFraction {
			t.Errorf("%s: derived metrics diverge: (%v, %v) vs (%v, %v)",
				name, s.Slowdown, s.ColdFraction, p.Slowdown, p.ColdFraction)
		}
	}
}

// TestSerialEquivalenceAblation pins one design-choice grid: the rows the
// pooled grid produces must be bit-identical to the serial ones.
func TestSerialEquivalenceAblation(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	spec := workload.MySQLTPCC()
	serial, _, err := AblationPoisonBudget(spec, Options{Scale: equivScale(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := AblationPoisonBudget(spec, Options{Scale: equivScale(), Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("ablation rows diverge between worker counts:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestSerialEquivalenceFig11 pins the slowdown sweep: app-major, target-
// minor row order and every value must survive the fan-out.
func TestSerialEquivalenceFig11(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	apps := []workload.Spec{workload.Redis()}
	serial, err := Fig11(Options{Scale: equivScale(), Apps: apps, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig11(Options{Scale: equivScale(), Apps: apps, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("fig11 rows diverge between worker counts:\nserial:   %+v\nparallel: %+v",
			serial, parallel)
	}
}

// TestPoolMapPropertyUnderHarness re-checks the scheduler's contract with
// randomized task latencies: pool.Map must keep results in input order and
// collect every error and panic with its task label, at any worker count.
// (The pool package holds the exhaustive version; this guards the contract
// from the harness's side, where the experiment rewiring depends on it.)
func TestPoolMapPropertyUnderHarness(t *testing.T) {
	t.Parallel()
	r := rng.New(7)
	for trial := 0; trial < 8; trial++ {
		n := 5 + int(r.Uint64n(20))
		workers := int(r.Uint64n(9))
		failing := map[int]bool{}
		panicking := map[int]bool{}
		tasks := make([]pool.Task[int], n)
		for i := range tasks {
			delay := time.Duration(r.Uint64n(200)) * time.Microsecond
			mode := r.Uint64n(6)
			if mode == 4 {
				failing[i] = true
			} else if mode == 5 {
				panicking[i] = true
			}
			tasks[i] = pool.Task[int]{Label: fmt.Sprintf("run/%d", i), Run: func() (int, error) {
				time.Sleep(delay)
				if failing[i] {
					return 0, fmt.Errorf("run %d failed", i)
				}
				if panicking[i] {
					panic(i)
				}
				return i, nil
			}}
		}
		res, err := pool.Map(workers, tasks)
		for i, v := range res {
			if !failing[i] && !panicking[i] && v != i {
				t.Fatalf("trial %d: result %d out of order (= %d)", trial, i, v)
			}
		}
		collected := map[int]bool{}
		var walk func(error)
		walk = func(e error) {
			if joined, ok := e.(interface{ Unwrap() []error }); ok {
				for _, sub := range joined.Unwrap() {
					walk(sub)
				}
				return
			}
			var te *pool.TaskError
			if errors.As(e, &te) {
				collected[te.Index] = true
				var pe *pool.PanicError
				if errors.As(te.Err, &pe) != panicking[te.Index] {
					t.Fatalf("trial %d: task %d misreported as panic=%v", trial, te.Index, !panicking[te.Index])
				}
			}
		}
		if err != nil {
			walk(err)
		}
		for i := range failing {
			if !collected[i] {
				t.Fatalf("trial %d: error of task %d lost", trial, i)
			}
		}
		for i := range panicking {
			if !collected[i] {
				t.Fatalf("trial %d: panic of task %d lost", trial, i)
			}
		}
		if len(failing)+len(panicking) == 0 && err != nil {
			t.Fatalf("trial %d: spurious error %v", trial, err)
		}
	}
}

// TestSerialEquivalenceFleetRun extends the workers differential to the
// fleet: a churning two-tenant run with per-tenant baselines fanned over 1
// vs 8 workers must produce DeepEqual outcomes — fleet result, per-tenant
// series, baselines — and byte-identical per-tenant trace exports.
func TestSerialEquivalenceFleetRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("integration run")
	}
	sc := equivScale()
	run := func(workers int) (*FleetOutcome, map[string][2]string, error) {
		fo, err := FleetRun(FleetOptions{
			Scale: sc,
			Tenants: []FleetTenant{
				{Name: "front", Spec: workload.WebSearch(), SLOPct: 3, Priority: 2, Share: 2},
				{Name: "batch", Spec: workload.MySQLTPCC(), SLOPct: 10,
					DepartNs: sc.DurationNs * 3 / 4},
			},
			Workers: workers, Baselines: true,
			Telemetry: &TelemetryOptions{Dir: t.TempDir()},
		})
		if err != nil {
			return nil, nil, err
		}
		paths, err := fo.ExportTenantTraces(&TelemetryOptions{Dir: t.TempDir()})
		return fo, paths, err
	}
	serial, serialPaths, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	fanned, fannedPaths, err := run(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.Result, fanned.Result) {
		t.Errorf("fleet results diverge between worker counts:\n w1 %+v\n w8 %+v",
			serial.Result, fanned.Result)
	}
	if !reflect.DeepEqual(serial.Baselines, fanned.Baselines) {
		t.Error("per-tenant baselines diverge between worker counts")
	}
	for name, sp := range serialPaths {
		fp, ok := fannedPaths[name]
		if !ok {
			t.Fatalf("tenant %s missing from fanned exports", name)
		}
		for i := 0; i < 2; i++ {
			sb, err := os.ReadFile(sp[i])
			if err != nil {
				t.Fatal(err)
			}
			fb, err := os.ReadFile(fp[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sb, fb) {
				t.Errorf("tenant %s export %d differs between worker counts", name, i)
			}
		}
	}
}
