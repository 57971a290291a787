package fleet

import (
	"fmt"

	"thermostat/internal/sim"
)

// refRun is the loop Run replaced, kept as the oracle for
// TestFleetBlocksMatchPerOp and FuzzFleetRunVsPerOp: one smooth-WRR pick,
// one request drawn, one access and every boundary test after every op. It
// shares Run's set-up, drain and result assembly, so a difference between
// the two is a difference in how ops are grouped, planned or drawn. Its idle
// branch moves the clock to the next boundary (the loop it was copied from
// added (next-now)/Threads, which stops making progress once the gap is
// under Threads).
func refRun(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
	r, err := newRunner(m, cfg, members)
	if err != nil {
		return nil, err
	}
	var req [1]sim.Req
	for m.Clock() < r.end {
		if pick := r.pickTenant(); pick >= 0 {
			st := &r.states[pick]
			st.wrr -= r.totalShare
			if err := sim.Draw(st.t.App, req[:]); err != nil {
				return nil, fmt.Errorf("fleet: %s: %w", st.t.Name, err)
			}
			if _, err := m.Access(req[0].V, req[0].Write); err != nil {
				return nil, fmt.Errorf("fleet: %s op %d: %w", st.t.Name, st.ops, err)
			}
			if st.computeNs > 0 {
				m.AdvanceClock(st.computeNs)
			}
			st.ops++
			r.totalOps++
			if cfg.WarmupNs > 0 && m.Clock() <= r.warmupClock {
				r.warmupOps = r.totalOps
				st.warmupOps = st.ops
			}
		} else {
			// Nobody resident: idle forward to the next boundary or
			// arrival so churn-only stretches cannot spin.
			next := r.tally.NextWindow()
			if r.nextArb < next {
				next = r.nextArb
			}
			for i := range r.states {
				st := &r.states[i]
				if !st.arrived && !st.rejected {
					if at := r.start + st.mem.ArriveNs; at > m.Clock() && at < next {
						next = at
					}
				}
			}
			if r.end < next {
				next = r.end
			}
			m.AdvanceClockTo(next)
		}
		if err := r.drain(m.Clock()); err != nil {
			return nil, err
		}
	}
	return r.result(), nil
}
