package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"thermostat/internal/golden"
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

// exportAll runs the Redis baseline+Thermostat pair with telemetry into dir
// at the given worker count and returns the exported file names.
func exportAll(t *testing.T, dir string, workers int) []string {
	t.Helper()
	spec, _ := workload.ByName("redis")
	runs, err := RunAll(Options{
		Scale:   telemetryScale(),
		Apps:    []workload.Spec{spec},
		Workers: workers,
		// A small event cap keeps files reviewable and exercises the
		// deterministic drop accounting.
		Telemetry: &TelemetryOptions{Dir: dir, MaxEvents: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	run := runs[spec.Name]
	if run.Base.Telemetry == nil || run.Thermo.Telemetry == nil {
		t.Fatal("outcomes missing their collectors")
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

// TestRunAllTelemetryWorkerInvariance is the acceptance-criteria differential
// test: the same experiment at Workers=1 and Workers=8 must export
// byte-identical trace and metrics files, because telemetry is recorded in
// virtual time by per-run collectors.
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

func TestSanitizeLabel(t *testing.T) {
	t.Parallel()
	if got := sanitizeLabel("runall/redis:3%"); got != "runall-redis-3-" {
		t.Fatalf("sanitizeLabel = %q", got)
	}
	if got := sanitizeLabel("ok-name_1.2"); got != "ok-name_1.2" {
		t.Fatalf("safe label mangled: %q", got)
	}
}
