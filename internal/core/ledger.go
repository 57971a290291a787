package core

import (
	"errors"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
)

// Migration retry policy: a failed move is retried up to maxAttempts times
// with exponential backoff charged as daemon time (50µs, then 100µs); a page
// that fails permanently, or keeps failing, is quarantined — skipped for
// quarantinePeriods sampling periods — instead of killing the run.
const (
	defaultMaxAttempts       = 3
	defaultBackoffBaseNs     = 50_000
	defaultQuarantinePeriods = 5
)

// ledger is the placement state every policy shares: which pages sit below
// the top tier, which are benched, and the lifetime counters of every move.
// A policy embeds it and adds only its decision rule — which pages to hand
// to promote and DemoteForCapacity, and when. The engine owns the one
// pointer to it (Policy.placement) and reads every report from it directly.
// Every move goes through the retry/backoff/quarantine protocol in
// attemptMove.
type ledger struct {
	group *cgroup.Group
	m     *sim.Machine
	tr    Tracker

	// cold holds every page below the top tier; in an N-tier hierarchy the
	// page may sit in any lower tier.
	cold map[addr.Virt]bool

	// scope, when set, restricts footprint accounting.
	scope func() []addr.Range

	// lastColdRate is the aggregate measured access rate to the cold set
	// from the most recent measureCold (accesses/sec) — the input to the
	// per-tenant slowdown estimate the fleet arbiter feeds on.
	lastColdRate float64

	// quarUntil maps a quarantined page to the period count at which it
	// becomes eligible again; entries expire lazily.
	quarUntil map[addr.Virt]uint64

	// periods counts completed sampling periods (Stats.Periods);
	// quarantine sentences are measured against it.
	periods stats.Counter

	demotions       stats.Counter
	promotions      stats.Counter
	sinks           stats.Counter
	demoteFailures  stats.Counter
	promoteFailures stats.Counter
	retries         stats.Counter
	quarantined     stats.Counter
}

func newLedger() ledger {
	return ledger{
		cold:      make(map[addr.Virt]bool),
		quarUntil: make(map[addr.Virt]uint64),
	}
}

// attach binds the ledger to a machine, the cgroup holding the tuning
// parameters and the tracker the policy consumes.
func (l *ledger) attach(m *sim.Machine, g *cgroup.Group, tr Tracker) {
	l.m = m
	l.group = g
	l.tr = tr
}

// placement implements Policy: the engine and the tracker read placement
// state from the ledger itself, never back through the policy.
func (l *ledger) placement() *ledger { return l }

// IsCold implements View.
func (l *ledger) IsCold(base addr.Virt) bool { return l.cold[base] }

// stateBytes is the ledger's resident metadata: 16 B per cold page and per
// quarantine entry, lazily-unexpired sentences included. A policy adds its
// own maps on top.
func (l *ledger) stateBytes() uint64 {
	return uint64(len(l.cold))*16 + uint64(len(l.quarUntil))*16
}

// Footprint implements Policy: classify every in-scope mapped leaf by
// backing tier and grain.
func (l *ledger) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, scopeRangesOf(l.scope))
}

// EndPeriod implements Policy: the quarantine clock advances one period.
func (l *ledger) EndPeriod() { l.periods.Inc() }

// quarantine benches base for defaultQuarantinePeriods sampling periods: no
// placement decision (demote, promote, sink, squeeze) will touch it until
// the sentence expires.
func (l *ledger) quarantine(base addr.Virt) {
	l.quarUntil[base] = l.periods.Value() + defaultQuarantinePeriods
	l.quarantined.Inc()
}

// isQuarantined reports whether base is still benched; expired sentences are
// dropped lazily.
func (l *ledger) isQuarantined(base addr.Virt) bool {
	until, ok := l.quarUntil[base]
	if !ok {
		return false
	}
	if l.periods.Value() >= until {
		delete(l.quarUntil, base)
		return false
	}
	return true
}

// placeable reports whether base is a demotion candidate: not already in
// the cold set (Engine.Squeeze can demote a page the tracker has mid-sample,
// and the estimate that sample later yields still describes it as top-tier)
// and not benched.
func (l *ledger) placeable(base addr.Virt) bool {
	return !l.cold[base] && !l.isQuarantined(base)
}

// measureCold measures the whole cold set through the tracker, in base
// order so map iteration never leaks into a placement decision, and records
// the aggregate as lastColdRate. Quarantined pages are measured too — when
// the sentence expires the rate covers one interval, not the whole bench —
// but the caller must not treat them as candidates.
func (l *ledger) measureCold(intervalSec float64) []Measured {
	l.lastColdRate = 0
	if len(l.cold) == 0 {
		return nil
	}
	bases := make([]addr.Virt, 0, len(l.cold))
	for base := range l.cold {
		bases = append(bases, base)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	measured := l.tr.MeasureCold(bases, intervalSec)
	for _, c := range measured {
		l.lastColdRate += c.Rate
	}
	return measured
}

// classified records one placement verdict in the event trail.
func (l *ledger) classified(base addr.Virt, rate float64, cold bool) {
	if rec := l.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{
			Kind: telemetry.KindClassified, TimeNs: l.m.Clock(),
			Page: base, Rate: rate, Cold: cold,
		})
	}
}

// placeVerdicts records the Place phase's verdict for every estimate: cold
// for the pages in chosen, hot for the rest.
func (l *ledger) placeVerdicts(ests []Estimate, chosen []addr.Virt) {
	if l.m.Recorder() == nil {
		return
	}
	isChosen := make(map[addr.Virt]bool, len(chosen))
	for _, base := range chosen {
		isChosen[base] = true
	}
	for _, est := range ests {
		l.classified(est.Base, est.Rate, isChosen[est.Base])
	}
}

// promote moves a cold huge page one tier up the hierarchy and reports
// whether it moved. A page reaching the top (fast) tier leaves the cold set;
// in deeper hierarchies a page promoted into an intermediate tier stays in
// it and keeps its tracker-based monitoring. Failures take the same
// retry/quarantine path as demotions — a full fast tier degrades the
// correction, it does not kill the run.
func (l *ledger) promote(base addr.Virt) (bool, error) {
	handled, err := l.attemptMove(base, func() error {
		_, err := l.m.Promote(base)
		return err
	})
	if err != nil {
		return false, err
	}
	if handled {
		l.promoteFailures.Inc()
		return false, nil
	}
	l.promotions.Inc()
	if tier, err := l.m.Migrator().TierOfPage(base); err == nil && tier != mem.Fast {
		l.tr.NotePlaced(base)
		return true, nil
	}
	delete(l.cold, base)
	return true, nil
}

// DemoteForCapacity implements Policy: move one top-tier page down a tier
// and into the cold set, so the §3.5 corrector can bring it back if it
// turns out hot. With the poison tracker the machine arms PMD-grain
// monitoring, which doubles as the slow-memory emulation. A benched page is
// refused without an attempt; a failed move — destination pressure or an
// injected fault — is retried and then quarantined rather than aborting the
// run.
func (l *ledger) DemoteForCapacity(base addr.Virt) (bool, error) {
	if l.isQuarantined(base) {
		return false, nil
	}
	handled, err := l.attemptMove(base, func() error {
		_, err := l.m.Demote(base)
		return err
	})
	if err != nil {
		return false, err
	}
	if handled {
		l.demoteFailures.Inc()
		return false, nil
	}
	l.tr.NotePlaced(base)
	l.cold[base] = true
	l.demotions.Inc()
	return true, nil
}

// attemptMove runs op — one demote or promote of base — under the retry
// policy: up to defaultMaxAttempts tries, with exponential backoff charged
// as daemon time (the kthread burning virtual CPU off the critical path,
// like the kernel's migrate_pages retry loop). Retryable failures are
// simulated destination pressure (mem.ErrOutOfMemory) and injected transient
// faults; anything else is a programming error and propagates. A permanent
// fault, or attempts running out, quarantines the page and returns
// handled=true — the caller records the failure and moves on.
func (l *ledger) attemptMove(base addr.Virt, op func() error) (handled bool, err error) {
	backoff := int64(defaultBackoffBaseNs)
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil {
			return false, nil
		}
		fault, injected := chaos.AsFault(err)
		if injected {
			if rec := l.m.Recorder(); rec != nil {
				rec.Event(telemetry.Event{
					Kind: telemetry.KindChaosFault, TimeNs: l.m.Clock(),
					Page: base, Count: uint64(attempt),
					Site: uint8(fault.Site), Permanent: fault.Permanent,
				})
			}
		}
		if !injected && !errors.Is(err, mem.ErrOutOfMemory) {
			return false, err
		}
		if (injected && fault.Permanent) || attempt >= defaultMaxAttempts {
			l.quarantine(base)
			return true, nil
		}
		l.retries.Inc()
		l.m.ChargeDaemon(backoff)
		backoff *= 2
	}
}
