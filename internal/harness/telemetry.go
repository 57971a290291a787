package harness

import (
	"thermostat/internal/core"
	"thermostat/internal/obsv"
	"thermostat/internal/telemetry"
)

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
