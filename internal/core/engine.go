package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/sim"
)

// Stats are the engine's lifetime counters.
type Stats struct {
	// Periods is the number of completed sampling cycles.
	Periods uint64
	// Sampled is the number of huge pages profiled.
	Sampled uint64
	// Demotions and Promotions are page movements; promotions are the
	// §3.5 corrections (mis-classifications or working-set changes).
	// In N-tier hierarchies a promotion moves one tier up; only a page
	// reaching the top tier leaves the cold set.
	Demotions  uint64
	Promotions uint64
	// Sinks counts cold pages moved a further tier down an N-tier
	// hierarchy after staying completely idle (always 0 with two tiers).
	Sinks uint64
	// DemoteFailures counts demotions abandoned because the destination
	// tier was full or the migration kept failing.
	DemoteFailures uint64
	// PromoteFailures counts promotions abandoned the same way.
	PromoteFailures uint64
	// Retries counts migration attempts re-run after a transient failure
	// (destination pressure or an injected chaos fault).
	Retries uint64
	// Quarantined counts pages benched for quarantinePeriods sampling
	// periods after a permanent or repeatedly-failing migration.
	Quarantined uint64
}

// Engine drives one Tracker × Policy composition as a sim.Policy. Each tick
// runs the fixed phase order
//
//	Policy.Correct → Tracker.Estimates → Policy.Place → Tracker.Arm →
//	Policy.EndPeriod
//
// which for the poison tracker + threshold policy replays the monolithic
// Thermostat engine's correct → classify → poison → split cycle exactly.
// Every report — counters, cold set, quarantine, measured cold rate — reads
// the policy's ledger directly.
type Engine struct {
	group *cgroup.Group
	m     *sim.Machine
	tr    Tracker
	pol   Policy
	led   *ledger

	name     string
	lastTick int64

	// frozen, when set, puts the engine in quarantine-only mode: ticks
	// keep tracking (estimate + arm) but run no placements and no
	// corrections, so no new migrations start. The daemon's degradation
	// ladder flips it, always from the simulation goroutine at an epoch
	// boundary.
	frozen bool

	// noCorrection skips the Correct phase on every tick, frozen or not
	// (the §3.5 corrector ablation); MeasuredColdRate then reads 0.
	noCorrection bool

	lastEstimates []Estimate

	// pub is the engine's published observability census (see census.go);
	// publish is flipped once before the run starts and read on every tick.
	pub     censusPub
	publish atomic.Bool
}

// Compose builds an engine from a tracker and a policy. The display name is
// "<tracker>+<policy>".
func Compose(group *cgroup.Group, tr Tracker, pol Policy) *Engine {
	return &Engine{
		group: group,
		tr:    tr,
		pol:   pol,
		led:   pol.placement(),
		name:  tr.Name() + "+" + pol.Name(),
	}
}

// NewEngine builds the Thermostat engine — the poison tracker composed with
// the slowdown-threshold policy — drawing parameters from group and
// randomness from seed.
func NewEngine(group *cgroup.Group, seed uint64) *Engine {
	e := Compose(group, NewPoisonTracker(group, seed), NewThresholdPolicy())
	e.name = "thermostat"
	return e
}

// ComposeByName builds an engine from registry names (see TrackerNames and
// PolicyNames).
func ComposeByName(group *cgroup.Group, tracker, policy string, seed uint64) (*Engine, error) {
	tr, err := newTrackerByName(tracker, group, seed)
	if err != nil {
		return nil, err
	}
	pol, err := newPolicyByName(policy)
	if err != nil {
		return nil, err
	}
	return Compose(group, tr, pol), nil
}

// Tracker returns the composed tracker (for configuration and inspection).
func (e *Engine) Tracker() Tracker { return e.tr }

// Group returns the cgroup the engine draws its parameters from.
func (e *Engine) Group() *cgroup.Group { return e.group }

// Policy returns the composed placement policy.
func (e *Engine) Policy() Policy { return e.pol }

// SetPrefilter enables or disables the poison tracker's §3.2 Accessed-bit
// pre-filter (a no-op for trackers without one). For ablation studies.
func (e *Engine) SetPrefilter(on bool) {
	if pf, ok := e.tr.(interface{ SetPrefilter(bool) }); ok {
		pf.SetPrefilter(on)
	}
}

// SetCorrection enables or disables the §3.5 mis-classification corrector
// (the Correct phase). For ablation studies: without it, mis-classified
// pages stay in slow memory until resampled, and slowdown is unbounded
// under working-set changes.
func (e *Engine) SetCorrection(on bool) { e.noCorrection = !on }

// StateBytes reports the engine's own resident metadata — tracker and policy
// state. The machine's page table, allocator and trap state are counted
// separately by sim.Machine.StateBytes; together the two are the scaling
// benchmark's state-bytes numerator.
func (e *Engine) StateBytes() uint64 { return e.tr.StateBytes() + e.pol.StateBytes() }

// setScope restricts the engine to the address ranges returned by provider
// — its cgroup's memory — so several engines can manage disjoint tenants on
// one machine. The provider is consulted at every scan (ranges may grow).
func (e *Engine) setScope(provider func() []addr.Range) {
	e.tr.SetScope(provider)
	e.led.scope = provider
}

// SetFrozen switches quarantine-only mode on or off: a frozen engine still
// samples, estimates and expires quarantine sentences every tick, but skips
// the Correct and Place phases entirely, so no migration — demotion,
// promotion, sink or correction — can start. Must be called from the
// simulation goroutine (tick hooks qualify).
func (e *Engine) SetFrozen(on bool) { e.frozen = on }

// Frozen reports whether the engine is in quarantine-only mode.
func (e *Engine) Frozen() bool { return e.frozen }

// Name implements sim.Policy.
func (e *Engine) Name() string { return e.name }

// IntervalNs implements sim.Policy: one tick per scan interval.
func (e *Engine) IntervalNs() int64 { return e.group.Params().SamplePeriodNs }

// Attach implements sim.Policy.
func (e *Engine) Attach(m *sim.Machine) error {
	e.m = m
	e.lastTick = m.Clock()
	if err := e.tr.Attach(m, e.led); err != nil {
		return err
	}
	return e.pol.Attach(m, e.group, e.tr)
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	l := e.led
	return Stats{
		Periods:         l.periods.Value(),
		Sampled:         e.tr.Sampled(),
		Demotions:       l.demotions.Value(),
		Promotions:      l.promotions.Value(),
		Sinks:           l.sinks.Value(),
		DemoteFailures:  l.demoteFailures.Value(),
		PromoteFailures: l.promoteFailures.Value(),
		Retries:         l.retries.Value(),
		Quarantined:     l.quarantined.Value(),
	}
}

// FaultReport implements sim.FaultReporter: the machine's injector and
// rollback counts plus the policy's retry/quarantine handling.
func (e *Engine) FaultReport() chaos.Report {
	var r chaos.Report
	if e.m != nil {
		r = e.m.FaultReport()
	}
	r.Retried = e.led.retries.Value()
	r.Quarantined = e.led.quarantined.Value()
	return r
}

// QuarantinedPages returns the number of pages currently serving a
// quarantine sentence (including lazily-unexpired entries).
func (e *Engine) QuarantinedPages() int { return len(e.led.quarUntil) }

// ActiveQuarantinedPages returns the pages whose quarantine sentence is
// still running — lazily-unexpired entries excluded. While the engine is
// frozen nothing queries (and thus expires) the bench, so this is the
// signal for "quarantine pressure persists" as distinct from "stale
// bookkeeping remains". Pure inspection: no sentence expires.
func (e *Engine) ActiveQuarantinedPages() int {
	n := 0
	now := e.led.periods.Value()
	for _, until := range e.led.quarUntil {
		if now < until {
			n++
		}
	}
	return n
}

// ColdPages returns the number of huge pages currently placed in slow
// memory by the engine.
func (e *Engine) ColdPages() int { return len(e.led.cold) }

// IsCold implements sim.ColdChecker: it reports whether the engine has
// classified the 2MB page at base cold (any tier below the top). The
// telemetry layer uses it for the confusion matrix against LLC ground truth.
func (e *Engine) IsCold(base addr.Virt) bool { return e.led.cold[base] }

// InflightPages returns the number of huge pages currently mid-sample, for
// trackers with a sampling pipeline (0 for the rest).
func (e *Engine) InflightPages() int {
	if f, ok := e.tr.(interface{ InflightPages() int }); ok {
		return f.InflightPages()
	}
	return 0
}

// measuredColdRate returns the aggregate measured access rate to the cold
// set from the policy's most recent correction pass, in accesses/sec (0
// while correction is off). Multiplied by the slow-memory latency this is
// the engine's own §3.4 estimate of the slowdown it is inflicting — the
// per-tenant SLO-feedback signal the fleet arbiter consumes.
func (e *Engine) measuredColdRate() float64 {
	if e.noCorrection {
		return 0
	}
	return e.led.lastColdRate
}

// EstimatedSlowdownPct converts the measured cold-access rate into the
// paper's slowdown estimate: rate × ts, as a percentage of execution time.
func (e *Engine) EstimatedSlowdownPct() float64 {
	ts := float64(e.group.Params().SlowMemLatencyNs) * 1e-9
	return e.measuredColdRate() * ts * 100
}

// QuarantinedBases returns the currently-quarantined page bases in address
// order, lazily-unexpired entries included. Pure inspection.
func (e *Engine) QuarantinedBases() []addr.Virt {
	bases := make([]addr.Virt, 0, len(e.led.quarUntil))
	for base := range e.led.quarUntil {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases
}

// Squeeze demotes the coldest estimated top-tier pages until at least
// maxBytes of top-tier memory has been released (or candidates run out) —
// the fleet arbiter's enforcement hook when a tenant's DRAM grant shrinks
// below its residency. Candidates come from the most recent classify scan,
// coldest first with address-order ties, skipping pages already below the
// top tier; each demotion runs the policy's normal retry/quarantine path
// (a benched page is passed over, not re-attempted) and lands in the cold
// set, so the §3.5 corrector can undo a squeeze that turns out too
// aggressive. Returns the bytes actually released.
func (e *Engine) Squeeze(maxBytes uint64) (uint64, error) {
	if maxBytes == 0 || len(e.lastEstimates) == 0 {
		return 0, nil
	}
	cands := make([]Estimate, 0, len(e.lastEstimates))
	for _, est := range e.lastEstimates {
		if !e.led.cold[est.Base] {
			cands = append(cands, est)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Rate != cands[j].Rate {
			return cands[i].Rate < cands[j].Rate
		}
		return cands[i].Base < cands[j].Base
	})
	var freed uint64
	for _, c := range cands {
		if freed >= maxBytes {
			break
		}
		moved, err := e.pol.DemoteForCapacity(c.Base)
		if err != nil {
			return freed, err
		}
		if moved {
			freed += addr.PageSize2M
		}
	}
	return freed, nil
}

// Tick implements sim.Policy: one sampling period of the composition.
func (e *Engine) Tick(m *sim.Machine, now int64) error {
	if m != e.m {
		return fmt.Errorf("core: engine ticked on a different machine")
	}
	interval := float64(now-e.lastTick) / 1e9
	if interval <= 0 {
		interval = float64(e.group.Params().SamplePeriodNs) / 1e9
	}

	// Correct first so mis-classified pages come back before new demotions
	// compete for slow-tier capacity; then consume this interval's
	// estimates, place, and arm tracking for the next interval. In
	// quarantine-only mode both migration phases are skipped: tracking
	// stays warm so recovery has fresh estimates, but no page moves.
	if !e.frozen && !e.noCorrection {
		if err := e.pol.Correct(interval); err != nil {
			return err
		}
	}
	ests, err := e.tr.Estimates(interval)
	if err != nil {
		return err
	}
	e.lastEstimates = ests
	if !e.frozen {
		if err := e.pol.Place(ests); err != nil {
			return err
		}
	}
	if err := e.tr.Arm(); err != nil {
		return err
	}
	e.pol.EndPeriod()
	e.lastTick = now
	if e.publish.Load() {
		e.publishCensus(now)
	}
	return nil
}

// Footprint implements sim.Policy: classify every mapped leaf by backing
// tier and grain.
func (e *Engine) Footprint(m *sim.Machine) sim.Footprint {
	return e.pol.Footprint(m)
}
