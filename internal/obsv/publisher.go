// Package obsv is the live observability plane: a thread-safe Publisher
// that tees the telemetry Recorder stream into mirrored read-side state,
// a hand-rolled Prometheus text-format encoder (and strict parser), an
// HTTP server (/metrics, /healthz, /status, /tenants, /dump, pprof,
// expvar), and structured run logging via log/slog.
//
// Contract (see DESIGN.md "Observability plane"): the Publisher is strictly
// read-side. It forwards every Event/Snapshot to the inner Recorder
// unchanged, mirrors what it needs under its own mutex, and never feeds
// anything back into the simulation — so trace and metrics exports remain
// byte-identical with or without a live server attached.
package obsv

import (
	"sort"
	"sync"

	"thermostat/internal/core"
	"thermostat/internal/telemetry"
)

// Info is static run identification set once by the command before the run
// starts; it becomes the thermostat_run_info metric and part of /status.
type Info struct {
	Binary  string `json:"binary"`
	App     string `json:"app"`
	Tracker string `json:"tracker"`
	Policy  string `json:"policy"`
	Scale   string `json:"scale"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
}

// Run phases reported by /status.
const (
	phaseIdle    = "idle"
	PhaseRunning = "running"
	PhaseDone    = "done"
)

// stream is the mirrored state of one recorder stream (one simulation run).
type stream struct {
	label  string
	bounds telemetry.Config // inner collector bounds, for drop mirroring

	epoch     uint64
	timeNs    int64
	events    uint64 // events offered (recorded + dropped)
	snapsSeen uint64
	// totals sums the snapshots' Counters rows and TierAccesses: the
	// lifetime counters (Prometheus counters are monotonic; snapshots are
	// deltas).
	totals  telemetry.Snapshot
	last    telemetry.Snapshot // latest snapshot (gauges); slices owned
	hasSnap bool
}

// dropped mirrors the Collector's deterministic event-drop accounting:
// everything offered past MaxEvents is dropped.
func (s *stream) dropped() uint64 {
	if s.bounds.MaxEvents <= 0 || s.events <= uint64(s.bounds.MaxEvents) {
		return 0
	}
	return s.events - uint64(s.bounds.MaxEvents)
}

// ringHighWater mirrors the Collector's snapshot-ring high-water mark.
func (s *stream) ringHighWater() int {
	if s.bounds.MaxSnapshots > 0 && s.snapsSeen > uint64(s.bounds.MaxSnapshots) {
		return s.bounds.MaxSnapshots
	}
	return int(s.snapsSeen)
}

// tenantState is one fleet tenant's mirrored lifecycle and latest arbiter
// snapshot.
type tenantState struct {
	name       string
	resident   bool
	arrivedNs  int64
	departedNs int64
	grantBytes uint64
	last       telemetry.TenantSnapshot
	hasSnap    bool
}

// censusSource exposes an engine's published classification census
// (implemented by *core.Engine after EnablePublish).
type censusSource interface {
	PublishedCensus() (core.Census, bool)
}

// engineRef pairs a census source with its display label.
type engineRef struct {
	label string
	src   censusSource
}

// Publisher is the live observability plane's state hub. One Publisher
// serves one process; attach it to runs with Recorder and to engines with
// AttachEngine, then hand it to a Server. All methods are safe for
// concurrent use.
type Publisher struct {
	mu       sync.Mutex
	info     Info
	phase    string
	health   string
	streams  []*stream
	byLabel  map[string]*stream
	tenants  []*tenantState
	byTenant map[string]*tenantState
	engines  []engineRef
}

// NewPublisher returns an empty publisher in the idle phase.
func NewPublisher() *Publisher {
	return &Publisher{
		phase:    phaseIdle,
		byLabel:  map[string]*stream{},
		byTenant: map[string]*tenantState{},
	}
}

// SetInfo records static run identification (call before serving).
func (p *Publisher) SetInfo(i Info) {
	p.mu.Lock()
	p.info = i
	p.mu.Unlock()
}

// SetPhase moves the run phase shown by /status and /healthz.
func (p *Publisher) SetPhase(phase string) {
	p.mu.Lock()
	p.phase = phase
	p.mu.Unlock()
}

// SetHealth records the daemon's degradation-ladder position ("healthy",
// "degraded", "quarantine-only", "halted") for /status. Empty — the default
// for the batch CLIs, which have no ladder — omits the field.
func (p *Publisher) SetHealth(health string) {
	p.mu.Lock()
	p.health = health
	p.mu.Unlock()
}

// AttachEngine registers an engine census source under a display label.
func (p *Publisher) AttachEngine(label string, src censusSource) {
	p.mu.Lock()
	p.engines = append(p.engines, engineRef{label: label, src: src})
	p.mu.Unlock()
}

// Recorder returns a telemetry.Recorder that forwards every call to inner
// (which may be nil) and mirrors stream state under the publisher's mutex.
// The label names the stream in metrics ({run="<label>"}) and /status.
// Calling Recorder twice with one label reuses (and resets) the stream.
func (p *Publisher) Recorder(label string, inner *telemetry.Collector) telemetry.Recorder {
	p.mu.Lock()
	s := p.byLabel[label]
	if s == nil {
		s = &stream{label: label}
		p.byLabel[label] = s
		p.streams = append(p.streams, s)
	} else {
		*s = stream{label: label}
	}
	if inner != nil {
		s.bounds = inner.Bounds()
	}
	p.mu.Unlock()
	var in telemetry.Recorder
	if inner != nil {
		in = inner
	}
	return &streamRecorder{p: p, s: s, inner: in}
}

// streamRecorder is the tee handed to one simulation. Event/Snapshot run on
// the simulation goroutine; forwarding happens before mirroring so the
// inner collector sees exactly the stream it would without the tee.
type streamRecorder struct {
	p     *Publisher
	s     *stream
	inner telemetry.Recorder
}

// Event implements telemetry.Recorder.
func (r *streamRecorder) Event(e telemetry.Event) {
	if r.inner != nil {
		r.inner.Event(e)
	}
	r.p.observeEvent(r.s, e)
}

// Snapshot implements telemetry.Recorder.
func (r *streamRecorder) Snapshot(s telemetry.Snapshot) {
	if r.inner != nil {
		r.inner.Snapshot(s)
	}
	r.p.observeSnapshot(r.s, s)
}

// TenantSnapshot implements telemetry.TenantSink: mirrors per-tenant
// arbiter-period state and forwards to the inner recorder if it is a sink
// too (the standard Collector is not — tenant series live in fleet results).
func (r *streamRecorder) TenantSnapshot(ts telemetry.TenantSnapshot) {
	if sink, ok := r.inner.(telemetry.TenantSink); ok {
		sink.TenantSnapshot(ts)
	}
	r.p.observeTenant(ts)
}

func (p *Publisher) observeEvent(s *stream, e telemetry.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	s.events++
	if e.TimeNs > s.timeNs {
		s.timeNs = e.TimeNs
	}
	if e.Kind == telemetry.KindEpochStart {
		s.epoch = e.Epoch
	}
	switch e.Kind {
	case telemetry.KindTenantArrived:
		t := p.tenant(e.Tenant)
		t.resident = true
		t.arrivedNs = e.TimeNs
		t.grantBytes = e.Bytes
	case telemetry.KindTenantDeparted:
		t := p.tenant(e.Tenant)
		t.resident = false
		t.departedNs = e.TimeNs
	case telemetry.KindGrantChanged:
		p.tenant(e.Tenant).grantBytes = e.Bytes
	}
}

func (p *Publisher) observeSnapshot(s *stream, snap telemetry.Snapshot) {
	// Own the slices: the sender may reuse its buffers.
	snap.TierAccesses = append([]uint64(nil), snap.TierAccesses...)
	snap.TierOccupancy = append([]uint64(nil), snap.TierOccupancy...)
	p.mu.Lock()
	defer p.mu.Unlock()
	s.snapsSeen++
	if snap.EndNs > s.timeNs {
		s.timeNs = snap.EndNs
	}
	s.totals.Add(&snap)
	s.last = snap
	s.hasSnap = true
}

func (p *Publisher) observeTenant(ts telemetry.TenantSnapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tenant(ts.Tenant)
	t.last = ts
	t.hasSnap = true
	t.grantBytes = ts.GrantBytes
	// Tenants present from run start are admitted silently (no arrival
	// event — they are the run's shape, not churn), so an arbiter snapshot
	// is itself proof of residency.
	if t.departedNs == 0 {
		t.resident = true
	}
}

// tenant returns (creating if needed) the state for one tenant tag.
// Callers hold p.mu.
func (p *Publisher) tenant(name string) *tenantState {
	t := p.byTenant[name]
	if t == nil {
		t = &tenantState{name: name}
		p.byTenant[name] = t
		p.tenants = append(p.tenants, t)
	}
	return t
}

// streamCopy is one stream's mirrored state, exported by copy.
type streamCopy struct {
	Label         string
	Epoch         uint64
	TimeNs        int64
	Events        uint64
	Dropped       uint64
	SnapshotsSeen uint64
	RingHighWater int
	Totals        telemetry.Snapshot // lifetime sums of the Counters rows and TierAccesses
	Last          telemetry.Snapshot
	HasSnapshot   bool
}

// tenantCopy is one tenant's mirrored state, exported by copy.
type tenantCopy struct {
	Name       string
	Resident   bool
	ArrivedNs  int64
	DepartedNs int64
	GrantBytes uint64
	Last       telemetry.TenantSnapshot
	HasSnap    bool
}

// publishedState is a point-in-time copy of everything the publisher mirrors.
type publishedState struct {
	Info    Info
	Phase   string
	Health  string
	Streams []streamCopy
	Tenants []tenantCopy
}

// state returns a deep copy of the published state. Streams keep
// registration order; tenants are sorted by name for deterministic output.
func (p *Publisher) state() publishedState {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := publishedState{Info: p.info, Phase: p.phase, Health: p.health}
	for _, s := range p.streams {
		cp := streamCopy{
			Label:         s.label,
			Epoch:         s.epoch,
			TimeNs:        s.timeNs,
			Events:        s.events,
			Dropped:       s.dropped(),
			SnapshotsSeen: s.snapsSeen,
			RingHighWater: s.ringHighWater(),
			Totals:        s.totals,
			Last:          s.last,
			HasSnapshot:   s.hasSnap,
		}
		cp.Totals.TierAccesses = append([]uint64(nil), s.totals.TierAccesses...)
		cp.Last.TierAccesses = append([]uint64(nil), s.last.TierAccesses...)
		cp.Last.TierOccupancy = append([]uint64(nil), s.last.TierOccupancy...)
		st.Streams = append(st.Streams, cp)
	}
	for _, t := range p.tenants {
		st.Tenants = append(st.Tenants, tenantCopy{
			Name:       t.name,
			Resident:   t.resident,
			ArrivedNs:  t.arrivedNs,
			DepartedNs: t.departedNs,
			GrantBytes: t.grantBytes,
			Last:       t.last,
			HasSnap:    t.hasSnap,
		})
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Name < st.Tenants[j].Name })
	return st
}

// engineCensus pairs an engine label with its latest published census.
type engineCensus struct {
	Label  string
	Census core.Census
}

// censuses returns the latest census from every registered source that has
// published one, in registration order.
func (p *Publisher) censuses() []engineCensus {
	p.mu.Lock()
	refs := append([]engineRef(nil), p.engines...)
	p.mu.Unlock()
	var out []engineCensus
	for _, r := range refs {
		if c, ok := r.src.PublishedCensus(); ok {
			out = append(out, engineCensus{Label: r.label, Census: c})
		}
	}
	return out
}
