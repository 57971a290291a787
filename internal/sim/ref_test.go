package sim

import (
	"errors"
	"fmt"
)

// refRun is the loop Run replaced, kept as the oracle for
// TestBatchSerialEquivalence and TestThermostatBatchSerialEquivalence: one
// request drawn, one Machine.Access, and the warm-up, window and tick tests
// after every op. It keeps its result bookkeeping — window series, op
// counts, epochs — in a Scheduler member it never asks for a block, so a
// difference between the two is a difference in how ops are grouped.
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
	if rc.WindowNs <= 0 {
		rc.WindowNs = pol.IntervalNs()
	}
	s := NewScheduler(m, rc, app.Name(), pol.Name(), pol.Footprint)
	s.Add(app.Name(), app, pol, 1)
	s.Begin(pol)
	mb := &s.members[0]
	nextTick := s.start + pol.IntervalNs()
	var req [1]Req
	for m.Clock() < s.end {
		if got := app.NextBatch(req[:]); got != 1 {
			return nil, fmt.Errorf("sim: %s NextBatch drew %d of 1 requests", app.Name(), got)
		}
		if _, err := m.Access(req[0].V, req[0].Write); err != nil {
			return nil, fmt.Errorf("sim: %s op %d: %w", app.Name(), mb.ops, err)
		}
		if c := app.ComputeNs(); c > 0 {
			m.AdvanceClock(c)
		}
		mb.ops++
		if rc.WarmupNs > 0 && m.Clock() <= s.warmupClock {
			mb.warmupOps = mb.ops
		}
		now := m.Clock()
		s.windows(now)
		for now >= nextTick {
			if err := app.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", app.Name(), err)
			}
			if err := pol.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", pol.Name(), err)
			}
			s.RollEpoch(now)
			if rc.TickHook != nil {
				if err := rc.TickHook(now); errors.Is(err, ErrStopRun) {
					return s.Close(), nil
				} else if err != nil {
					return nil, fmt.Errorf("sim: tick hook: %w", err)
				}
			}
			nextTick += pol.IntervalNs()
		}
	}
	return s.Close(), nil
}
