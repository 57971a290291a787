package sim

import (
	"errors"
	"fmt"
)

// refRun is the loop Run replaced, kept as the oracle for
// TestBatchSerialEquivalence and TestThermostatBatchSerialEquivalence: one
// request drawn, one Machine.Access, and the warm-up, window and tick tests
// after every op. It keeps Run's result bookkeeping (Tally) and epoch
// tracking, so a difference between the two is a difference in how ops are
// grouped.
func refRun(m *Machine, app App, pol Policy, rc RunConfig) (*RunResult, error) {
	if rc.DurationNs <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %d", rc.DurationNs)
	}
	if err := app.Init(m); err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", app.Name(), err)
	}
	if err := pol.Attach(m); err != nil {
		return nil, fmt.Errorf("sim: attach %s: %w", pol.Name(), err)
	}
	window := rc.WindowNs
	if window <= 0 {
		window = pol.IntervalNs()
	}
	tally := NewTally(m, app.Name(), pol.Name(), window, pol.Footprint)
	et := NewEpochTracker(m, pol)
	start := m.Clock()
	end, nextTick, warmupClock := start+rc.DurationNs, start+pol.IntervalNs(), start+rc.WarmupNs
	var ops, warmupOps uint64
	var req [1]Req
	for m.Clock() < end {
		if err := Draw(app, req[:]); err != nil {
			return nil, err
		}
		if _, err := m.Access(req[0].V, req[0].Write); err != nil {
			return nil, fmt.Errorf("sim: %s op %d: %w", app.Name(), ops, err)
		}
		if c := app.ComputeNs(); c > 0 {
			m.AdvanceClock(c)
		}
		ops++
		if rc.WarmupNs > 0 && m.Clock() <= warmupClock {
			warmupOps = ops
		}
		now := m.Clock()
		tally.Windows(now)
		for now >= nextTick {
			if err := app.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", app.Name(), err)
			}
			if err := pol.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", pol.Name(), err)
			}
			et.Roll(now)
			if rc.TickHook != nil {
				if err := rc.TickHook(now); errors.Is(err, ErrStopRun) {
					et.End(m.Clock())
					return tally.Close(ops, warmupOps, rc.WarmupNs), nil
				} else if err != nil {
					return nil, fmt.Errorf("sim: tick hook: %w", err)
				}
			}
			nextTick += pol.IntervalNs()
		}
	}
	et.End(m.Clock())
	return tally.Close(ops, warmupOps, rc.WarmupNs), nil
}
