package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"thermostat/internal/golden"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// telemetryScale is a short schedule for the export tests: enough epochs for
// several sampling periods without the full Tiny run length.
func telemetryScale() Scale {
	sc := Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	return sc
}

// exportAll runs the Redis baseline+Thermostat pair the paired experiments
// read on workers goroutines, each arm with its own collector, exports both collectors into
// dir under the arms' labels, and returns the exported file names.
func exportAll(t *testing.T, dir string, workers int) []string {
	t.Helper()
	spec, _ := workload.ByName("redis")
	r := row{spec: spec, sc: telemetryScale()}
	var cols [2]*telemetry.Collector
	for j, a := range []arm{baseline, {name: "thermostat", plan: Plan{SlowdownPct: 3}}} {
		// A small event cap keeps files reviewable and exercises the
		// deterministic drop accounting.
		cols[j] = telemetry.NewCollectorWith(telemetry.Config{MaxEvents: 512})
		a.plan.Config = func(cfg *sim.Config) { cfg.Recorder = cols[j] }
		r.arms = append(r.arms, a)
	}
	outs, err := runRows(workers, []row{r})
	if err != nil {
		t.Fatal(err)
	}
	for j, a := range r.arms {
		if outs[0][j].Telemetry != cols[j] {
			t.Fatalf("%s outcome missing its collector", a.name)
		}
		stem := filepath.Join(dir, "runall-"+spec.Name+"-"+a.name)
		if err := cols[j].WriteFiles(stem+".trace.json", stem+".metrics.jsonl"); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if len(names) != 4 { // {baseline,thermostat} x {trace,metrics}
		t.Fatalf("exported %v, want 4 files", names)
	}
	return names
}

// TestRunAllTelemetryWorkerInvariance is the worker-count differential: the
// same pair at Workers=1 and Workers=8 must export byte-identical trace and
// metrics files, because telemetry is recorded in virtual time by per-run
// collectors.
func TestRunAllTelemetryWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	dir1, dir8 := t.TempDir(), t.TempDir()
	names := exportAll(t, dir1, 1)
	names8 := exportAll(t, dir8, 8)
	if len(names8) != len(names) {
		t.Fatalf("worker counts exported different file sets: %v vs %v", names, names8)
	}
	for _, name := range names {
		a, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir8, name))
		if err != nil {
			t.Fatalf("Workers=8 missing %s: %v", name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between Workers=1 and Workers=8 (%d vs %d bytes)",
				name, len(a), len(b))
		}
	}

	// Golden pin of the seeded two-tier Thermostat exports: any drift in
	// event content, field order or formatting fails here.
	for _, name := range []string{
		"runall-redis-thermostat.trace.json",
		"runall-redis-thermostat.metrics.jsonl",
	} {
		got, err := os.ReadFile(filepath.Join(dir1, name))
		if err != nil {
			t.Fatal(err)
		}
		golden.Bytes(t, name, got)
	}
}
