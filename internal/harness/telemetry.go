package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"thermostat/internal/core"
	"thermostat/internal/obsv"
	"thermostat/internal/telemetry"
)

// TelemetryOptions turns on per-run trace collection for an experiment.
// Every run gets its own telemetry.Collector (traces are recorded in
// virtual time, so they are deterministic regardless of Options.Workers)
// and exports one Chrome-trace file and one JSONL metrics file named after
// the run's label — distinct per task, so concurrent pool workers never
// share a file.
type TelemetryOptions struct {
	// Dir receives the trace files (default "results/traces"); it is
	// created if missing.
	Dir string
	// MaxEvents and MaxSnapshots override the collector bounds
	// (0 = telemetry defaults).
	MaxEvents    int
	MaxSnapshots int
}

// NewCollector builds a collector with this option set's bounds.
func (t *TelemetryOptions) NewCollector() *telemetry.Collector {
	return telemetry.NewCollectorWith(telemetry.Config{
		MaxEvents: t.MaxEvents, MaxSnapshots: t.MaxSnapshots,
	})
}

// Observe is the one wiring of a run into the live observability plane. It
// returns the recorder the run installs — col teed into pub under label, or
// col alone without a publisher (nil when col is nil too) — and census,
// which publishes an engine's classification census under a label. census
// does nothing without a publisher: publishing costs host time every tick.
func Observe(pub *obsv.Publisher, label string, col *telemetry.Collector) (rec telemetry.Recorder, census func(label string, eng *core.Engine)) {
	if pub == nil {
		census = func(string, *core.Engine) {}
		if col == nil {
			return nil, census
		}
		return col, census
	}
	return pub.Recorder(label, col), func(label string, eng *core.Engine) {
		eng.EnablePublish()
		pub.AttachEngine(label, eng)
	}
}

// sanitizeLabel maps a run label to a safe file stem.
func sanitizeLabel(label string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, label)
}

// Export writes c's Chrome trace and JSONL metrics under the configured
// directory and returns the two paths. Distinct labels yield distinct files,
// so exports are safe under pool parallelism.
func (t *TelemetryOptions) Export(label string, c *telemetry.Collector) (tracePath, metricsPath string, err error) {
	dir := t.Dir
	if dir == "" {
		dir = filepath.Join("results", "traces")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("harness: telemetry dir: %w", err)
	}
	stem := sanitizeLabel(label)
	tracePath = filepath.Join(dir, stem+".trace.json")
	metricsPath = filepath.Join(dir, stem+".metrics.jsonl")

	return tracePath, metricsPath, c.WriteFiles(tracePath, metricsPath)
}
