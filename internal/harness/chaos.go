package harness

import (
	"fmt"

	"thermostat/internal/chaos"
	"thermostat/internal/pool"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// ChaosPoint is one arm of a ChaosSweep: a full Thermostat run at one
// injection rate, with the run's fault report surfaced alongside.
type ChaosPoint struct {
	// Rate is the per-site injection probability this arm ran at.
	Rate float64
	// Outcome is the complete run (Outcome.Faults carries the report).
	Outcome *Outcome
}

// ChaosOptions configures a ChaosSweep.
type ChaosOptions struct {
	// Scale is the size/time transform (default Tiny()).
	Scale Scale
	// SlowdownPct is the Thermostat target (default 3).
	SlowdownPct float64
	// Workers bounds the sweep's parallelism (0 = all cores). Arms are
	// independent seeded runs, so results are bit-identical at any
	// worker count.
	Workers int
	// Base is the injector template each arm copies; Rate is overridden
	// per arm, everything else (Seed, SiteRates, PermanentFraction)
	// carries through. A zero Seed still yields a valid injector — the
	// chaos stream is seeded independently of the workload's.
	Base chaos.Config
}

func (o ChaosOptions) withDefaults() ChaosOptions {
	if o.Scale.Div == 0 {
		o.Scale = Tiny()
	}
	if o.SlowdownPct == 0 {
		o.SlowdownPct = 3
	}
	return o
}

// ChaosSweep runs spec under Thermostat once per injection rate and
// returns one point per rate, in input order. The sweep fails fast: a rate
// whose run errors out stops dispatching the remaining arms (in-flight
// arms drain), since a configuration the policy cannot survive makes the
// rest of the sweep moot. Rate 0 arms install no injector at all, so the
// zero point doubles as the sweep's built-in control run.
func ChaosSweep(spec workload.Spec, rates []float64, opt ChaosOptions) ([]ChaosPoint, error) {
	opt = opt.withDefaults()
	if err := opt.Scale.Validate(); err != nil {
		return nil, err
	}
	tasks := make([]pool.Task[*Outcome], len(rates))
	for i, rate := range rates {
		cfg := opt.Base
		cfg.Rate = rate
		tasks[i] = pool.Task[*Outcome]{
			Label: fmt.Sprintf("chaos/%s/rate=%g", spec.Name, rate),
			Run: func() (*Outcome, error) {
				return Run(spec, opt.Scale, Plan{SlowdownPct: opt.SlowdownPct,
					Config: func(c *sim.Config) { c.Chaos = cfg }})
			},
		}
	}
	outs, err := pool.MapOpts(pool.Options{Workers: opt.Workers, FailFast: true}, tasks)
	if err != nil {
		return nil, err
	}
	points := make([]ChaosPoint, len(rates))
	for i, out := range outs {
		points[i] = ChaosPoint{Rate: rates[i], Outcome: out}
	}
	return points, nil
}
