package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

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

func (t *TelemetryOptions) dir() string {
	if t.Dir != "" {
		return t.Dir
	}
	return filepath.Join("results", "traces")
}

// NewCollector builds a collector with this option set's bounds.
func (t *TelemetryOptions) NewCollector() *telemetry.Collector {
	return telemetry.NewCollectorWith(telemetry.Config{
		MaxEvents: t.MaxEvents, MaxSnapshots: t.MaxSnapshots,
	})
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
	dir := t.dir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("harness: telemetry dir: %w", err)
	}
	stem := sanitizeLabel(label)
	tracePath = filepath.Join(dir, stem+".trace.json")
	metricsPath = filepath.Join(dir, stem+".metrics.jsonl")

	return tracePath, metricsPath, c.WriteFiles(tracePath, metricsPath)
}
