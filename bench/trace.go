package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"thermostat/internal/addr"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// span is one timed interval at a layer boundary. Calls made once per batch,
// tick or phase get a span each. Calls made once per simulated access
// (per-op App.Next, Recorder.Event) would need millions of spans, so they
// share one aggregated span per (name, parent): Calls counts them, Busy sums
// their durations, and Start/End bracket the first and last.
type span struct {
	Name   string
	Start  int64 // ns since the tracer started
	End    int64
	Parent int32 // index into tracer.spans; -1 for a root
	Calls  int64
	Busy   int64 // == End-Start for a plain span
}

type aggKey struct {
	parent int32
	name   string
}

// tracer records spans in memory; nothing is written until the run is over.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
	agg   map[aggKey]int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[aggKey]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) top() int32 {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a plain span under the innermost open span.
func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: t.top(), Calls: 1})
	t.stack = append(t.stack, id)
	t.spans[id].Start = t.now()
	return id
}

// end closes the span begin returned; spans close in LIFO order.
func (t *tracer) end(id int32) {
	now := t.now()
	s := &t.spans[id]
	s.End = now
	s.Busy = now - s.Start
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf adds one call that started at start (a value of now) to the
// aggregated span name under the innermost open span.
func (t *tracer) leaf(name string, start int64) {
	now := t.now()
	k := aggKey{t.top(), name}
	id, ok := t.agg[k]
	if !ok {
		id = int32(len(t.spans))
		t.spans = append(t.spans, span{Name: name, Start: start, Parent: k.parent})
		t.agg[k] = id
	}
	s := &t.spans[id]
	s.End = now
	s.Calls++
	s.Busy += now - start
}

// selfTimes returns each span's busy time minus its children's.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Busy
		if s.Parent >= 0 {
			self[s.Parent] -= s.Busy
		}
	}
	return self
}

// under reports whether span i is root or a descendant of it; a negative
// root stands for the whole trace.
func (t *tracer) under(i, root int32) bool {
	if root < 0 {
		return true
	}
	for ; i >= 0; i = t.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// busy sums the busy time and calls of the spans called name under root.
func (t *tracer) busy(root int32, name string) (ns, calls int64) {
	for i, s := range t.spans {
		if s.Name == name && t.under(int32(i), root) {
			ns += s.Busy
			calls += s.Calls
		}
	}
	return ns, calls
}

// durations lists, sorted, the busy times of the spans called name under root.
func (t *tracer) durations(root int32, name string) []float64 {
	var d []float64
	for i, s := range t.spans {
		if s.Name == name && t.under(int32(i), root) {
			d = append(d, float64(s.Busy))
		}
	}
	sort.Float64s(d)
	return d
}

// traceEvent is one record of the Chrome trace_event format ("X" =
// complete event; ts and dur in microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as trace_event JSON. An aggregated span is drawn
// from its first call with its summed busy time as the width.
func (t *tracer) write(path, workloadName string) error {
	evs := make([]traceEvent, 0, len(t.spans))
	for i, s := range t.spans {
		ev := traceEvent{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.Busy) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]any{"id": i, "parent": s.Parent, "run": workloadName}}
		if s.Calls != 1 {
			ev.Args["calls"] = s.Calls
			ev.Args["last_end_us"] = float64(s.End) / 1e3
		}
		evs = append(evs, ev)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// capture keeps the post-warm-up head of the request stream the traced run
// issued, for the component replays.
type capture struct {
	on   bool
	reqs []sim.Req
}

const maxCapture = 1 << 18

func (c *capture) add(reqs ...sim.Req) {
	if c.on && len(c.reqs) < maxCapture {
		c.reqs = append(c.reqs, reqs[:min(len(reqs), maxCapture-len(c.reqs))]...)
	}
}

// tracedApp is the sim.App (and core.ScopedApp, sim.BatchApp) decorator.
type tracedApp struct {
	*workload.App
	tr *tracer
	// initDone makes Init a no-op: the benchmark already called it in set-up.
	initDone bool
	warmupNs int64
	cap      *capture
}

func (a *tracedApp) Init(m *sim.Machine) error {
	if a.initDone {
		return nil
	}
	id := a.tr.begin("workload.Init")
	defer a.tr.end(id)
	return a.App.Init(m)
}

func (a *tracedApp) Next() (addr.Virt, bool) {
	t0 := a.tr.now()
	v, w := a.App.Next()
	a.tr.leaf("workload.Next", t0)
	a.cap.add(sim.Req{V: v, Write: w})
	return v, w
}

func (a *tracedApp) NextBatch(reqs []sim.Req) int {
	id := a.tr.begin("workload.NextBatch")
	n := a.App.NextBatch(reqs)
	a.tr.end(id)
	a.cap.add(reqs[:n]...)
	return n
}

func (a *tracedApp) Tick(m *sim.Machine, now int64) error {
	id := a.tr.begin("workload.Tick")
	defer a.tr.end(id)
	if now >= a.warmupNs {
		a.cap.on = true
	}
	return a.App.Tick(m, now)
}

// tickScope groups one engine's phase spans under a "core.Tick" span. The
// engine itself cannot be wrapped where the fleet holds it by concrete
// type, so the span opens at the first phase of a tick (Correct, or
// Estimates when the engine is frozen) and closes after Arm, the last.
type tickScope struct {
	tr   *tracer
	id   int32
	open bool
}

func (s *tickScope) enter() {
	if !s.open {
		s.id, s.open = s.tr.begin("core.Tick"), true
	}
}

func (s *tickScope) leave() {
	if s.open {
		s.tr.end(s.id)
		s.open = false
	}
}

// tracedTracker and tracedPolicy embed the concrete types so the optional
// interfaces the engine probes for (SetSharding, StateBytes, SetPrefilter,
// MeasuredColdRate, DemoteForCapacity, ...) survive decoration.
type tracedTracker struct {
	*core.PoisonTracker
	tick *tickScope
}

func (t tracedTracker) MeasureCold(cold []addr.Virt, intervalSec float64) []core.Measured {
	id := t.tick.tr.begin("tracker.MeasureCold")
	defer t.tick.tr.end(id)
	return t.PoisonTracker.MeasureCold(cold, intervalSec)
}

func (t tracedTracker) Estimates(intervalSec float64) ([]core.Estimate, error) {
	t.tick.enter()
	id := t.tick.tr.begin("tracker.Estimates")
	defer t.tick.tr.end(id)
	return t.PoisonTracker.Estimates(intervalSec)
}

func (t tracedTracker) Arm() error {
	id := t.tick.tr.begin("tracker.Arm")
	err := t.PoisonTracker.Arm()
	t.tick.tr.end(id)
	t.tick.leave()
	return err
}

type tracedPolicy struct {
	*core.ThresholdPolicy
	tick *tickScope
}

func (p tracedPolicy) Correct(intervalSec float64) error {
	p.tick.enter()
	id := p.tick.tr.begin("policy.Correct")
	defer p.tick.tr.end(id)
	return p.ThresholdPolicy.Correct(intervalSec)
}

func (p tracedPolicy) Place(ests []core.Estimate) error {
	id := p.tick.tr.begin("policy.Place")
	defer p.tick.tr.end(id)
	return p.ThresholdPolicy.Place(ests)
}

func (p tracedPolicy) Footprint(m *sim.Machine) sim.Footprint {
	id := p.tick.tr.begin("policy.Footprint")
	defer p.tick.tr.end(id)
	return p.ThresholdPolicy.Footprint(m)
}

// tracedRecorder decorates the telemetry sink a run installs.
type tracedRecorder struct {
	inner telemetry.Recorder
	tr    *tracer
}

func (r tracedRecorder) Event(e telemetry.Event) {
	t0 := r.tr.now()
	r.inner.Event(e)
	r.tr.leaf("telemetry.Event", t0)
}

func (r tracedRecorder) Snapshot(s telemetry.Snapshot) {
	id := r.tr.begin("telemetry.Snapshot")
	r.inner.Snapshot(s)
	r.tr.end(id)
}
