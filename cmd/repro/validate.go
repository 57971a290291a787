package main

import (
	"fmt"
	"slices"
	"strings"

	"thermostat/internal/daemon"
)

// options captures every flag value that validation inspects, so the
// validator is a pure function the tests drive directly (same shape as
// cmd/thermostat-sim's).
type options struct {
	Exps      string
	Scale     string
	Apps      string
	Slowdown  float64
	Duration  float64
	Serve     string
	Pprof     string
	LogFormat string
}

// experiments is the set -exp accepts, including the opt-in extras 'all'
// does not run.
var experiments = []string{
	"all", "fig1", "naive", "fig2", "table1", "table2", "fig3", "colddata",
	"fig11", "table3", "table4", "baselines", "ablations",
	"ntier", "matrix", "fleet", "scale",
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The experiment
// list is repro's own; everything else defers to daemon.Config.Validate,
// the one copy of the rules shared with cmd/thermostat-sim and thermostatd.
// Every repro run drives the paper's thermostat arm, so the config maps
// with that policy fixed.
func validate(o options) error {
	for _, e := range strings.Split(o.Exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(experiments, e) {
			return fmt.Errorf("unknown experiment %q (experiments: %s)",
				e, strings.Join(experiments, ", "))
		}
	}
	var apps []string
	if o.Apps != "" {
		apps = strings.Split(o.Apps, ",")
	}
	cfg := daemon.Config{
		Apps:        apps,
		Policy:      "thermostat",
		Scale:       o.Scale,
		SlowdownPct: o.Slowdown,
		DurationS:   o.Duration,
		Serve:       o.Serve,
		Pprof:       o.Pprof,
		LogFormat:   o.LogFormat,
	}
	return cfg.Validate()
}
