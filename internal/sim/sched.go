package sim

import (
	"errors"
	"fmt"
	"runtime/debug"

	"thermostat/internal/addr"
	"thermostat/internal/stats"
	"thermostat/internal/tlb"
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
	// ring order, are planned and in the pipeline: the producer draws their
	// requests and the translator then translates them, each on its own
	// goroutine, while the current block issues.
	ring       []block
	cur, ahead int
	// todo carries blocks to the producer, and done brings them back from
	// the translator; nil until a run first works ahead, and again after
	// Stop.
	todo, done chan *block
}

// aheadMax is the most blocks drawn ahead of the one issuing.
const aheadMax = 4

// block is one planned block: its interleave, each picked member's
// requests in reqs, in member order, and the ops' translations in xl, in
// issue order.
type block struct {
	n     int
	spans []span
	draws []draw
	reqs  []Req
	// xl[:xn] are the translated ops; xn < n when translating op xn failed
	// with xerr.
	xl   []xlat
	xn   int
	xerr error
	// A block worked ahead carries its draw's outcome back to Block: a short
	// count, or a panic in NextBatch or in translation.
	err      error
	panicked *AheadPanic
}

// xlat is one op's translation: the physical address, the latency, and
// whether it took a poison fault.
type xlat struct {
	pa      addr.Phys
	lat     int32
	faulted bool
}

// AheadPanic is a panic on a goroutine that works ahead of the simulation
// goroutine — in an app's NextBatch on the producer, or in translation on
// the translator — raised again on the simulation goroutine: Goroutine
// names which, Value is what was panicked with, and Stack is that
// goroutine's stack at the panic, which names the frame that panicked (the
// raising goroutine's stack does not).
type AheadPanic struct {
	Goroutine string
	Value     any
	Stack     []byte
}

func (p *AheadPanic) Error() string {
	return fmt.Sprintf("%v\n[raised ahead on the Scheduler's %s; its stack:]\n%s", p.Value, p.Goroutine, p.Stack)
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
	planned  int // picks in the block being planned
	next     int // where its next span's requests start in that block's reqs

	ops, warmupOps uint64
}

// span is a stretch of consecutive ops of one member within a block, whose
// requests are the block's reqs[off:off+n].
type span struct {
	member int
	n, off int
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
	return block{spans: make([]span, 0, MaxBlockOps), reqs: make([]Req, MaxBlockOps), xl: make([]xlat, MaxBlockOps)}
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
// before any other boundary work. A block is translated whole before it is
// charged, and Block hands the producer the blocks after this one that are
// certain to be full and to end before any boundary, to draw and then
// translate on the translator while this one issues (DESIGN.md, "One
// per-op core, blocks of N"). The access path stages its telemetry events
// on the Machine; a Block that leaves no block drawn ahead hands them to
// the Recorder before it returns, so the Recorder runs only while the
// producer and the translator are idle, and every boundary finds them
// delivered.
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
	if b.xn == b.n {
		s.drawAhead(fullAhead(limit-m.Clock(), u, n), total, lone)
	}
	// Issue the spans in order: each op is Machine.charge of its
	// translation, followed by its member's compute step.
	var last *member
	k := 0 // the ops of b issued
	for _, sp := range b.spans {
		last = &s.members[sp.member]
		step := last.step
		reqs := b.reqs[sp.off : sp.off+sp.n]
		xl := b.xl[k:min(k+sp.n, b.xn)]
		for j, x := range xl {
			q := reqs[j]
			if _, err := m.charge(q.V, q.Write, x.pa, int64(x.lat), x.faulted); err != nil {
				return last.opErr(j, err)
			}
			m.clock += step
		}
		if len(xl) < sp.n {
			return last.opErr(len(xl), b.xerr)
		}
		k += sp.n
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

// opErr is err at the member's op j of its span being issued.
func (mb *member) opErr(j int, err error) error {
	return fmt.Errorf("sim: %s op %d: %w", mb.name, mb.ops+uint64(j), err)
}

// next returns the block to issue, translated: the oldest drawn ahead,
// which must be the n ops Block has just sized, or else one planned, drawn
// and translated now, before Block hands any later block over, so blocks
// are translated in issue order.
func (s *Scheduler) next(n, total, lone int) (*block, error) {
	if s.ahead == 0 {
		b := &s.ring[s.cur]
		s.plan(b, n, total, lone)
		if err := b.draw(); err != nil {
			return nil, err
		}
		b.translate(s.m, s.m.guest.VPID())
		return b, nil
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
// hands them to the producer, starting the pipeline on first use. Planning
// stays on the simulation goroutine, so the credits advance in issue order.
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

// startProducer fills the ring and starts this Scheduler's pipeline: the
// producer, which draws blocks ahead, and the translator, which translates
// them as they come. Its channels hold every block in flight, so no side
// blocks on a send.
func (s *Scheduler) startProducer() {
	for len(s.ring) < aheadMax+1 {
		s.ring = append(s.ring, newBlock())
	}
	drawn := make(chan *block, aheadMax)
	s.todo, s.done = make(chan *block, aheadMax), make(chan *block, aheadMax)
	go produce(s.todo, drawn)
	go translateAhead(s.m, s.m.guest.VPID(), drawn, s.done)
}

// produce draws each block it is sent and sends it on, until todo closes.
func produce(todo <-chan *block, drawn chan<- *block) {
	defer close(drawn)
	for b := range todo {
		b.panicked = nil
		b.caught("producer", func() { b.err = b.draw() })
		drawn <- b
	}
}

// errUntranslated fails a block left untranslated after an earlier failure.
var errUntranslated = errors.New("sim: not translated: an earlier block failed")

// translateAhead translates each block it is sent, in order, and sends it
// on, until drawn closes. From the first block that failed to draw or to
// translate on, it translates nothing more, so the machine stays as the run
// left it at that block's failing op.
func translateAhead(m *Machine, vpid tlb.VPID, drawn <-chan *block, done chan<- *block) {
	defer close(done)
	failed := false
	for b := range drawn {
		if failed = failed || b.err != nil || b.panicked != nil; failed {
			b.xn, b.xerr = 0, errUntranslated
		} else {
			b.caught("translator", func() { b.translate(m, vpid) })
			failed = b.xn < b.n || b.panicked != nil
		}
		done <- b
	}
}

// caught runs f, keeping a panic, with the stack that raised it on the
// named goroutine, for Block to raise again on the simulation goroutine.
func (b *block) caught(goroutine string, f func()) {
	defer func() {
		if p := recover(); p != nil {
			b.panicked = &AheadPanic{Goroutine: goroutine, Value: p, Stack: debug.Stack()}
		}
	}()
	f()
}

// translate fills xl with b's ops' translations, in issue order, up to the
// first that fails; inline and translated-ahead blocks both translate here.
func (b *block) translate(m *Machine, vpid tlb.VPID) {
	b.xn, b.xerr = 0, nil
	xl, k := b.xl, 0
	for _, sp := range b.spans {
		for _, q := range b.reqs[sp.off : sp.off+sp.n] {
			pa, lat, faulted, err := m.translate(q.V, q.Write, vpid)
			if err != nil {
				b.xn, b.xerr = k, err
				return
			}
			xl[k] = xlat{pa: pa, lat: int32(lat), faulted: faulted}
			k++
		}
	}
	b.xn = k
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

// Stop ends the producer and the translator once they have worked through
// what they hold, drops the blocks drawn ahead and not issued, and hands
// the Recorder the events the access path has staged: the run is over.
// Close calls it, and so do Run's and fleet.Run's early returns. Those
// leave blocks in flight only after a failure, past which the translator
// translates nothing; a Scheduler driven by hand and stopped off a
// boundary leaves the blocks it drops translated.
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
		spans = append(spans, span{member: lone, n: n})
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
				spans = append(spans, span{member: pick, n: 1})
			}
		}
	}
	b.n, b.spans, b.draws = n, spans, b.draws[:0]
	off := 0
	for i := range ms {
		if mb := &ms[i]; mb.planned > 0 {
			b.draws = append(b.draws, draw{member: i, app: mb.app, name: mb.name, n: mb.planned})
			mb.next, off = off, off+mb.planned
			mb.planned = 0
		}
	}
	for k := range spans {
		sp := &spans[k]
		mb := &ms[sp.member]
		sp.off, mb.next = mb.next, mb.next+sp.n
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
