package sim

import (
	"fmt"
	"runtime/debug"

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

	// ring[cur] is the block being issued; the ahead blocks after it, in
	// ring order, are planned and with the producer, which draws their
	// requests on its own goroutine while the current block issues.
	ring       []block
	cur, ahead int
	// todo and done carry blocks to and from the producer; nil until a run
	// first draws ahead, and again after Stop.
	todo, done chan *block
}

// aheadMax is the most blocks drawn ahead of the one issuing.
const aheadMax = 4

// block is one planned block: its interleave, and each picked member's
// requests in reqs, in member order.
type block struct {
	n     int
	spans []span
	draws []draw
	reqs  []Req
	// A block drawn ahead carries its draw's outcome back to Block: a short
	// count, or a panic in NextBatch.
	err      error
	panicked *DrawPanic
}

// DrawPanic is a panic in an app's NextBatch drawn ahead on the producer,
// raised again on the simulation goroutine: Value is what NextBatch
// panicked with, and Stack the producer's stack at the panic, which names
// the app's frame that panicked (the raising goroutine's stack does not).
type DrawPanic struct {
	Value any
	Stack []byte
}

func (p *DrawPanic) Error() string {
	return fmt.Sprintf("%v\n[NextBatch drawn ahead; producer stack:]\n%s", p.Value, p.Stack)
}

// draw is one member's NextBatch of a block. It holds the app and name
// rather than the member's index alone, so the producer reads nothing the
// simulation goroutine writes.
type draw struct {
	member int
	app    App
	name   string
	n      int
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
		ring:        []block{newBlock()},
	}
}

func newBlock() block {
	return block{spans: make([]span, 0, MaxBlockOps), reqs: make([]Req, MaxBlockOps)}
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
// on and first ticks one policy interval from now. Join, Leave, Tick and
// RollEpoch belong at a boundary that the last Block's limit named, as in
// Run and fleet.Run, where no block is drawn ahead; elsewhere they panic,
// since the drawn blocks were planned with the old interleave and their
// NextBatch calls may still be running.
func (s *Scheduler) Join(i int) {
	s.atBoundary("Join")
	s.members[i].resident, s.members[i].lastTick = true, s.m.Clock()
}

// Leave takes member i out of the interleave and the tick drain.
func (s *Scheduler) Leave(i int) {
	s.atBoundary("Leave")
	s.members[i].resident = false
}

// atBoundary panics unless no block is drawn ahead.
func (s *Scheduler) atBoundary(op string) {
	if s.ahead > 0 {
		panic(fmt.Sprintf("sim: Scheduler.%s with %d blocks drawn ahead: call it only at a boundary that the last Block's limit named", op, s.ahead))
	}
}

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
// before any other boundary work. While the access path runs no caller
// code (no miss hook), it also hands the producer the blocks after this
// one that are certain to be full and to end before any boundary, to draw
// while this one issues (DESIGN.md, "One per-op core, blocks of N"). The
// access path stages its telemetry events on the Machine; a Block that
// leaves no block drawn ahead hands them to the Recorder before it
// returns, so the Recorder runs only while the producer is idle, and every
// boundary finds them delivered.
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
	if residents > 1 {
		lone = -1
	}
	// With the warm-up mark a boundary, only a block's last op can cross it.
	inWarmup := s.warmupClock > s.start && m.Clock() <= s.warmupClock
	if inWarmup {
		limit = min(limit, s.warmupClock+1)
	}
	u := m.maxOpAdvanceNs(compute)
	n := m.blockOps(limit, u)
	b, err := s.next(n, total, lone)
	if err != nil {
		return err
	}
	if m.missHook == nil {
		s.drawAhead(fullAhead(limit-m.Clock(), u, n), total, lone)
	}
	off := 0
	for _, d := range b.draws {
		s.members[d.member].reqs = b.reqs[off : off+d.n]
		off += d.n
	}
	// Issue the spans in order, the one issue loop: each op is
	// Machine.access followed by its member's compute step.
	vpid := m.guest.VPID()
	var last *member
	for _, sp := range b.spans {
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
	if s.ahead == 0 {
		m.flushEvents()
	}
	s.windows(m.Clock())
	return nil
}

// fullAhead is how many blocks after one of n ops are certain to be full
// and to start before any boundary work, with gap = limit − now and u the
// per-op bound: each block of k ops ends by now + k·u, so at the start of
// the j-th block after this one ⌊(gap−1)/u⌋ has fallen by at most n +
// (j−1)·M, M = MaxBlockOps. With rem = ⌊(gap−1)/u⌋ − n, that block is full
// while rem − (j−1)·M ≥ M−1, and the block before it, with at least one more
// M in hand, ends short of the limit, so no boundary falls between them.
func fullAhead(gap, u int64, n int) int {
	const full = MaxBlockOps
	if gap <= 0 {
		return 0
	}
	rem := (gap-1)/u - int64(n)
	if rem < full-1 {
		return 0
	}
	return int(min((rem-(full-1))/full+1, aheadMax))
}

// next returns the block to issue: the oldest drawn ahead, which must be
// the n ops Block has just sized, or else one planned and drawn now.
func (s *Scheduler) next(n, total, lone int) (*block, error) {
	if s.ahead == 0 {
		b := &s.ring[s.cur]
		s.plan(b, n, total, lone)
		return b, b.draw()
	}
	s.cur, s.ahead = (s.cur+1)%len(s.ring), s.ahead-1
	b := <-s.done
	if b.panicked != nil {
		panic(b.panicked)
	}
	if b.err != nil {
		return nil, b.err
	}
	if b.n != n {
		return nil, fmt.Errorf("sim: a block of %d ops was drawn ahead where Block sized %d: a block is drawn ahead only when certain to be full, and the effective limit may not shrink between blocks that end short of it", b.n, n)
	}
	return b, nil
}

// drawAhead plans the next blocks, up to f ahead of the current one, and
// hands them to the producer, starting it on first use. Planning stays on
// the simulation goroutine, so the credits advance in issue order.
func (s *Scheduler) drawAhead(f, total, lone int) {
	if s.ahead >= f {
		return
	}
	if s.todo == nil {
		s.startProducer()
	}
	for s.ahead < f {
		s.ahead++
		b := &s.ring[(s.cur+s.ahead)%len(s.ring)]
		s.plan(b, MaxBlockOps, total, lone)
		s.todo <- b
	}
}

// startProducer fills the ring and starts the one goroutine that draws
// blocks ahead for this Scheduler. Its channels hold every block in flight,
// so neither side blocks on a send.
func (s *Scheduler) startProducer() {
	for len(s.ring) < aheadMax+1 {
		s.ring = append(s.ring, newBlock())
	}
	s.todo, s.done = make(chan *block, aheadMax), make(chan *block, aheadMax)
	go produce(s.todo, s.done)
}

// produce draws each block it is sent and sends it back, until todo closes.
func produce(todo <-chan *block, done chan<- *block) {
	defer close(done)
	for b := range todo {
		b.drawCaught()
		done <- b
	}
}

// drawCaught draws b, keeping a panic, with the stack that raised it, for
// Block to raise again on the simulation goroutine.
func (b *block) drawCaught() {
	b.panicked = nil
	defer func() {
		if p := recover(); p != nil {
			b.panicked = &DrawPanic{Value: p, Stack: debug.Stack()}
		}
	}()
	b.err = b.draw()
}

// draw fills b's requests, one NextBatch per picked member; inline and
// drawn-ahead blocks both draw here.
func (b *block) draw() error {
	off := 0
	for _, d := range b.draws {
		if got := d.app.NextBatch(b.reqs[off : off+d.n]); got != d.n {
			return fmt.Errorf("sim: %s NextBatch drew %d of %d requests", d.name, got, d.n)
		}
		off += d.n
	}
	return nil
}

// Stop ends the producer once it has drawn what it holds, drops the blocks
// drawn ahead and not issued, and hands the Recorder the events the access
// path has staged: the run is over. Close calls it, and so do Run's and
// fleet.Run's early returns.
func (s *Scheduler) Stop() {
	if s.todo != nil {
		close(s.todo)
		for range s.done {
		}
		s.todo, s.done, s.ahead = nil, nil, 0
	}
	s.m.flushEvents()
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

// plan makes b the next n picks: spans by smooth weighted round-robin
// (credit every resident its share, pick the highest, the lower index on a
// tie, debit the pick the residents' total share), then one draw per picked
// member. A lone resident's credit gains its share and loses the total, its
// share, at every pick: its plan is n picks of it.
func (s *Scheduler) plan(b *block, n, total, lone int) {
	ms, spans := s.members, b.spans[:0]
	if lone >= 0 {
		spans = append(spans, span{lone, n})
		ms[lone].planned = n
	} else {
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
	}
	b.n, b.spans, b.draws = n, spans, b.draws[:0]
	for i := range ms {
		if mb := &ms[i]; mb.planned > 0 {
			b.draws = append(b.draws, draw{member: i, app: mb.app, name: mb.name, n: mb.planned})
			mb.planned = 0
		}
	}
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
	s.atBoundary("Tick")
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

// RollEpoch closes the telemetry epoch at now and opens the next. Like
// Tick, it belongs at a boundary.
func (s *Scheduler) RollEpoch(now int64) {
	s.atBoundary("RollEpoch")
	s.et.roll(now)
}

// Close stops the producer, ends the last epoch and completes the result at
// the clock.
func (s *Scheduler) Close() *RunResult {
	s.Stop()
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
