package fleet

import (
	"thermostat/internal/sim"
	"thermostat/internal/stats"
)

// refRun is the oracle for TestFleetBlocksMatchPerOp and
// FuzzFleetRunVsPerOp: the per-op loop, every block one op — one
// smooth-WRR pick, a one-request draw, one access — with every boundary
// tested after each. It shares Run's set-up, drain and result assembly, so a
// difference between the two is a difference in how ops are grouped,
// planned or drawn. It counts the warm-up ops itself, op by op, and
// computes the throughputs from its own counts. While nobody is resident it
// idles to the next arbiter round or arrival, found here rather than by
// Run's horizon.
func refRun(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
	r, err := newRunner(m, cfg, members)
	if err != nil {
		return nil, err
	}
	ops := make([]uint64, len(members))
	warmupOps := make([]uint64, len(members))
	var total, totalWarmup uint64
	for !r.s.Done() {
		limit := m.Clock()
		if !r.anyResident() {
			limit = r.nextArb
			for i := range r.states {
				st := &r.states[i]
				if !st.arrived && !st.rejected {
					if at := r.start + st.mem.ArriveNs; at > m.Clock() && at < limit {
						limit = at
					}
				}
			}
		}
		if err := r.s.Block(limit); err != nil {
			return nil, err
		}
		for i := range ops {
			if n := r.s.Ops(i); n != ops[i] {
				ops[i], total = n, total+1
				if cfg.WarmupNs > 0 && m.Clock() <= r.warmupClock {
					warmupOps[i], totalWarmup = n, total
				}
			}
		}
		if err := r.drain(m.Clock()); err != nil {
			return nil, err
		}
	}
	res := r.result()
	res.Global.Ops = total
	res.Global.Throughput = refThroughput(total, totalWarmup, r.start, r.warmupClock, m.Clock())
	for i := range res.Tenants {
		if tr := &res.Tenants[i]; r.states[i].arrived {
			to := tr.DepartedNs
			if to == 0 {
				to = m.Clock()
			}
			tr.Throughput = refThroughput(ops[i], warmupOps[i], tr.ArrivedNs, r.warmupClock, to)
		}
	}
	return res, nil
}

// refThroughput is ops per second over [from, to) less the warm-up ops,
// timed from the warm-up mark when that is later; a span that ends by the
// mark counts every op.
func refThroughput(ops, warmupOps uint64, from, warmupClock, to int64) float64 {
	span := to - max(from, warmupClock)
	if span <= 0 {
		span, warmupOps = to-from, 0
	}
	return stats.Rate(ops-warmupOps, span)
}

func (r *runner) anyResident() bool {
	for i := range r.states {
		if r.states[i].active {
			return true
		}
	}
	return false
}
