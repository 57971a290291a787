package sim

import (
	"fmt"

	"thermostat/internal/stats"
)

// Scheduler is the one run loop: it issues the accesses of the apps that
// share a machine, each under its own policy, in blocks that end on a
// boundary (DESIGN.md, "One per-op core, blocks of N"). Run drives it with
// one member, fleet.Run with one per tenant: Block up to the caller's own
// nearest boundary, drain what fell due (DueTick, Tick, the caller's own
// work), repeat until Done, then Close.
type Scheduler struct {
	m   *Machine
	res *RunResult
	et  *epochTracker

	members []member

	start, end, warmupClock int64

	// The open metric window closes at nextWindow; slow is SlowAccesses
	// when it opened.
	window, nextWindow int64
	slow               uint64
	footprint          func(*Machine) Footprint

	reqs  []Req  // the block's requests, one run per member
	spans []span // the block's planned interleave
}

// member is one app on the machine under its own policy.
type member struct {
	name      string
	app       App
	pol       Policy
	share     int
	computeNs int64
	step      int64 // the clock advance of computeNs, divided once

	resident bool
	// lastTick is when the member last ticked, or joined. The interval to
	// its next tick is read when due-checked, so a retune at a tick (Run's
	// TickHook) governs the very next one.
	lastTick int64
	wrr      int
	planned  int   // picks in the block being planned
	reqs     []Req // its requests of the block not yet issued

	ops, warmupOps uint64
}

// span is a stretch of consecutive ops of one member within a block.
type span struct {
	member int
	n      int
}

// NewScheduler opens a run of rc.DurationNs at m's clock, with metric
// windows of rc.WindowNs (positive) that read footprint, and a result
// named for appName and policyName. rc.TickHook is the caller's to run.
func NewScheduler(m *Machine, rc RunConfig, appName, policyName string, footprint func(*Machine) Footprint) *Scheduler {
	start := m.Clock()
	return &Scheduler{
		m: m,
		res: &RunResult{
			AppName:    appName,
			PolicyName: policyName,
			SlowRate:   stats.NewSeries("slow-access-rate"),
			Cold2M:     stats.NewSeries("cold-2M-bytes"),
			Cold4K:     stats.NewSeries("cold-4K-bytes"),
			Hot2M:      stats.NewSeries("hot-2M-bytes"),
			Hot4K:      stats.NewSeries("hot-4K-bytes"),
		},
		start:       start,
		end:         start + rc.DurationNs,
		warmupClock: start + rc.WarmupNs,
		window:      rc.WindowNs,
		nextWindow:  start + rc.WindowNs,
		footprint:   footprint,
		reqs:        make([]Req, MaxBlockOps),
		spans:       make([]span, 0, MaxBlockOps),
	}
}

// Add registers app under pol, with share of the interleave, as the next
// member, not yet resident. name labels its errors.
func (s *Scheduler) Add(name string, app App, pol Policy, share int) {
	mb := member{name: name, app: app, pol: pol, share: share, computeNs: app.ComputeNs()}
	if mb.computeNs > 0 {
		mb.step = mb.computeNs / int64(s.m.cfg.Threads)
	}
	s.members = append(s.members, mb)
}

// Join makes member i resident from now: it is picked from the next block
// on and first ticks one policy interval from now.
func (s *Scheduler) Join(i int) { s.members[i].resident, s.members[i].lastTick = true, s.m.Clock() }

// Leave takes member i out of the interleave and the tick drain.
func (s *Scheduler) Leave(i int) { s.members[i].resident = false }

// Begin opens the first telemetry epoch. owner, when non-nil, supplies the
// epochs' cold set and fault report; nil when no one policy owns the machine.
func (s *Scheduler) Begin(owner Policy) { s.et = newEpochTracker(s.m, owner) }

// Done reports whether the run has reached its end.
func (s *Scheduler) Done() bool { return s.m.Clock() >= s.end }

// Ops returns member i's issued ops.
func (s *Scheduler) Ops(i int) uint64 { return s.members[i].ops }

// Throughput is member i's post-warm-up ops per virtual second over [from, to).
func (s *Scheduler) Throughput(i int, from, to int64) float64 {
	mb := &s.members[i]
	return throughput(mb.ops, mb.warmupOps, from, s.warmupClock, to)
}

// Block issues one block of ops ending on the nearest boundary no later
// than limit, or idles to that boundary when no member is resident; then it
// closes every metric window that has ended, so the series see the machine
// before any other boundary work.
func (s *Scheduler) Block(limit int64) error {
	m := s.m
	limit = min(limit, s.nextWindow, s.end)
	lone, residents, total, compute := -1, 0, 0, int64(0)
	for i := range s.members {
		if mb := &s.members[i]; mb.resident {
			lone, residents, total = i, residents+1, total+mb.share
			compute = max(compute, mb.computeNs)
			limit = min(limit, mb.nextTick())
		}
	}
	if residents == 0 {
		m.AdvanceClockTo(limit)
		s.windows(m.Clock())
		return nil
	}
	// With the warm-up mark a boundary, only a block's last op can cross it.
	inWarmup := s.warmupClock > s.start && m.Clock() <= s.warmupClock
	if inWarmup {
		limit = min(limit, s.warmupClock+1)
	}
	n := m.blockOps(limit, m.maxOpAdvanceNs(compute))
	if residents == 1 {
		// A lone resident's credit gains its share and loses the total,
		// its share, at every pick: the plan is n picks of it.
		s.spans = append(s.spans[:0], span{lone, n})
		s.members[lone].planned = n
	} else {
		s.plan(n, total)
	}
	off := 0
	for i := range s.members {
		mb := &s.members[i]
		if mb.planned == 0 {
			continue
		}
		mb.reqs = s.reqs[off : off+mb.planned]
		off += mb.planned
		mb.planned = 0
		if got := mb.app.NextBatch(mb.reqs); got != len(mb.reqs) {
			return fmt.Errorf("sim: %s NextBatch drew %d of %d requests", mb.name, got, len(mb.reqs))
		}
	}
	// Issue the spans in order, the one issue loop: each op is
	// Machine.access followed by its member's compute step.
	vpid := m.guest.VPID()
	var last *member
	for _, sp := range s.spans {
		last = &s.members[sp.member]
		step := last.step
		for j, q := range last.reqs[:sp.n] {
			if _, err := m.access(q.V, q.Write, vpid); err != nil {
				return fmt.Errorf("sim: %s op %d: %w", last.name, last.ops+uint64(j), err)
			}
			m.clock += step
		}
		last.reqs = last.reqs[sp.n:]
		last.ops += uint64(sp.n)
		if inWarmup {
			last.warmupOps = last.ops
		}
	}
	if inWarmup && m.Clock() > s.warmupClock {
		last.warmupOps--
	}
	s.windows(m.Clock())
	return nil
}

// windows closes every metric window that has ended by now, recording its
// slow-access rate and the footprint at that instant.
func (s *Scheduler) windows(now int64) {
	for now >= s.nextWindow {
		at := s.nextWindow - s.start
		slow := s.m.Metrics().SlowAccesses
		s.res.SlowRate.Append(at, stats.Rate(slow-s.slow, s.window))
		s.slow = slow
		fp := s.footprint(s.m)
		s.res.Cold2M.Append(at, float64(fp.Cold2M))
		s.res.Cold4K.Append(at, float64(fp.Cold4K))
		s.res.Hot2M.Append(at, float64(fp.Hot2M))
		s.res.Hot4K.Append(at, float64(fp.Hot4K))
		s.nextWindow += s.window
	}
}

// plan splits n ops among the resident members into spans by smooth
// weighted round-robin: credit every resident its share, pick the highest
// (the lower index on a tie), debit the pick the residents' total share.
func (s *Scheduler) plan(n, total int) {
	ms, spans := s.members, s.spans[:0]
	for k := 0; k < n; k++ {
		pick := -1
		for i := range ms {
			if mb := &ms[i]; mb.resident {
				mb.wrr += mb.share
				if pick < 0 || mb.wrr > ms[pick].wrr {
					pick = i
				}
			}
		}
		ms[pick].wrr -= total
		ms[pick].planned++
		if last := len(spans) - 1; last >= 0 && spans[last].member == pick {
			spans[last].n++
		} else {
			spans = append(spans, span{pick, 1})
		}
	}
	s.spans = spans
}

// nextTick is when the member's next tick falls due.
func (mb *member) nextTick() int64 { return mb.lastTick + mb.pol.IntervalNs() }

// DueTick returns the resident member whose tick falls due first at or
// before at — the lower index on a tie — or -1 when none does.
func (s *Scheduler) DueTick(at int64) int {
	due, dueAt := -1, int64(0)
	for i := range s.members {
		if mb := &s.members[i]; mb.resident {
			if t := mb.nextTick(); t <= at && (due < 0 || t < dueAt) {
				due, dueAt = i, t
			}
		}
	}
	return due
}

// Tick runs member i's due tick at now: its app's, then its policy's.
func (s *Scheduler) Tick(i int, now int64) error {
	mb := &s.members[i]
	mb.lastTick = mb.nextTick()
	if err := mb.app.Tick(s.m, now); err != nil {
		return fmt.Errorf("sim: %s tick: %w", mb.name, err)
	}
	if err := mb.pol.Tick(s.m, now); err != nil {
		return fmt.Errorf("sim: %s %s tick: %w", mb.name, mb.pol.Name(), err)
	}
	return nil
}

// RollEpoch closes the telemetry epoch at now and opens the next.
func (s *Scheduler) RollEpoch(now int64) { s.et.roll(now) }

// Close ends the last epoch and completes the result at the clock.
func (s *Scheduler) Close() *RunResult {
	now := s.m.Clock()
	s.et.end(now)
	var warmupOps uint64
	res := s.res
	for _, mb := range s.members {
		res.Ops, warmupOps = res.Ops+mb.ops, warmupOps+mb.warmupOps
	}
	res.DurationNs = now - s.start
	res.Throughput = throughput(res.Ops, warmupOps, s.start, s.warmupClock, now)
	res.FinalFootprint = s.footprint(s.m)
	res.Metrics = s.m.Metrics()
	return res
}

// throughput is ops per virtual second over a span that opens at from and
// closes at to: the ops after the first warmupOps, counted from the warm-up
// mark when that falls later than from; a span that closes by the mark
// counts every op from from.
func throughput(ops, warmupOps uint64, from, warmupClock, to int64) float64 {
	span := to - max(from, warmupClock)
	if span <= 0 {
		span, warmupOps = to-from, 0
	}
	return stats.Rate(ops-warmupOps, span)
}
