// Package core implements page-placement engines for tiered memory as the
// composition of two pluggable pieces:
//
//   - a Tracker estimates per-page access rates over sampling intervals
//     (how hot is each 2MB page?), and
//   - a Policy turns those estimates into migrations (which pages live in
//     which tier?).
//
// The paper's Thermostat engine is one point in that space — the poison
// tracker composed with the slowdown-threshold policy — and NewEngine still
// builds exactly it, bit-for-bit. Compose builds any other cell of the
// tracker × policy matrix.
package core

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/sim"
)

// View is the slice of placement state a tracker may consult. The
// poison tracker needs it to decide which sampled pages carry whole-region
// poison (cold pages inherit the PMD poison at split time) and which need
// the §3.2 Accessed-bit subset selection.
type View interface {
	// IsCold reports whether the 2MB page at base is placed below the top
	// tier.
	IsCold(base addr.Virt) bool
}

// Tracker estimates per-page access rates. One Tick of the composed engine
// drives it through four phases, always in this order:
//
//	MeasureCold (policy corrector) → Estimates → [policy places] → Arm
//
// Determinism contract: a tracker must consume randomness only from its own
// rng stream, in an order independent of Go map iteration, and must charge
// its scan work via Machine.ChargeDaemon so runs stay reproducible at any
// worker count.
type Tracker interface {
	// Name is the registry/flag name ("poison", "idlebit", ...).
	Name() string

	// Attach binds the tracker to a machine. view exposes the composed
	// policy's ledger and is valid for the lifetime of the run; it may be
	// consulted during any phase.
	Attach(m *sim.Machine, view View) error

	// SetScope restricts tracking to the ranges returned by provider (nil
	// provider = whole address space). May be called before Attach.
	SetScope(provider func() []addr.Range)

	// MeasureCold returns measured access rates over the elapsed interval
	// for the given pages — the policy's cold set, sorted by base. Pages
	// the tracker cannot measure this interval (e.g. mid-resample) are
	// omitted; the returned slice preserves the input order. Measurement
	// consumes the underlying counters: the next interval starts now.
	MeasureCold(cold []addr.Virt, intervalSec float64) []Measured

	// Estimates closes the interval's estimation phase and returns access
	// rate estimates, sorted by base, for top-tier pages observed this
	// interval. Trackers that sample (poison) cover Coverage() of the
	// tier per call; scanners cover all of it.
	Estimates(intervalSec float64) ([]Estimate, error)

	// Arm starts the next tracking interval: split/poison the next
	// cohort, clear Accessed/Dirty bits, re-sample regions.
	Arm() error

	// NotePlaced tells the tracker the policy moved the 2MB page at base
	// to another tier, so per-page counters rebase from now.
	NotePlaced(base addr.Virt)

	// Coverage is the fraction of top-tier pages estimated per interval.
	// Policies scale per-interval placement budgets by it.
	Coverage() float64

	// Sampled counts huge pages profiled over the run (Stats.Sampled).
	Sampled() uint64

	// StateBytes is the tracker's resident metadata in bytes.
	StateBytes() uint64
}

// Policy is a placement decision rule over the ledger it embeds. One Tick
// drives it through three phases, always in this order:
//
//	Correct → Place → EndPeriod
//
// Correct runs first so mis-classified cold pages come back before new
// demotions compete for slow-tier capacity; Place consumes the estimates
// the tracker gathered over the elapsed interval; EndPeriod advances the
// period clock (quarantine sentences are measured in periods). The engine
// reads placement state — the cold set, the counters, the quarantine bench,
// the measured cold rate — straight from the ledger, and Squeeze demotes on
// the fleet arbiter's behalf through DemoteForCapacity.
type Policy interface {
	// Name is the registry/flag name ("threshold", "heat").
	Name() string

	// Attach binds the policy to a machine, its cgroup (tuning
	// parameters) and the tracker it consumes estimates from.
	Attach(m *sim.Machine, g *cgroup.Group, tr Tracker) error

	// Correct measures the current cold set through the tracker and
	// undoes mis-classifications (promotions, and sinks in deep
	// hierarchies).
	Correct(intervalSec float64) error

	// Place applies the placement rule to this interval's estimates
	// (sorted by base) and demotes/promotes accordingly.
	Place(ests []Estimate) error

	// EndPeriod marks the end of one sampling period.
	EndPeriod()

	// DemoteForCapacity demotes one top-tier page through the normal
	// placement machinery (retry/quarantine, cold-set membership, tracker
	// notification) and reports whether the page actually moved. A
	// quarantined page is refused without an attempt.
	DemoteForCapacity(base addr.Virt) (bool, error)

	// Footprint classifies the managed leaves by grain and tier.
	Footprint(m *sim.Machine) sim.Footprint

	// StateBytes is the policy's resident metadata in bytes.
	StateBytes() uint64

	// placement returns the ledger the policy embeds: the one owner of
	// placement state, which the engine and the tracker read directly.
	placement() *ledger
}

// TrackerNames lists the selectable trackers in presentation order.
func TrackerNames() []string { return []string{"poison", "idlebit", "softdirty", "damon"} }

// PolicyNames lists the selectable placement policies in presentation order.
func PolicyNames() []string { return []string{"threshold", "heat"} }

// Per-tracker rng stream identifiers. The poison tracker keeps the plain
// seed stream (rng.New) so the seed Thermostat composition replays the exact
// pre-refactor random sequence; every other tracker draws from its own
// dedicated stream so adding one can never perturb the workload, chaos or
// sibling-tracker streams.
const (
	streamIdleBit   = 0x1d1eb175 // "idle bits"
	streamSoftDirty = 0x50f7d127
	streamDamon     = 0xda303712
)

// NewTrackerByName builds a tracker by registry name, drawing tuning
// parameters from group and randomness from seed.
func NewTrackerByName(name string, group *cgroup.Group, seed uint64) (Tracker, error) {
	switch name {
	case "poison":
		return NewPoisonTracker(group, seed), nil
	case "idlebit":
		return NewIdleBitTracker(group, seed), nil
	case "softdirty":
		return NewSoftDirtyTracker(group, seed), nil
	case "damon":
		return NewDamonTracker(group, seed), nil
	}
	return nil, fmt.Errorf("core: unknown tracker %q (have %v)", name, TrackerNames())
}

// NewPolicyByName builds a placement policy by registry name.
func NewPolicyByName(name string) (Policy, error) {
	switch name {
	case "threshold":
		return NewThresholdPolicy(), nil
	case "heat":
		return NewHeatPolicy(), nil
	}
	return nil, fmt.Errorf("core: unknown policy %q (have %v)", name, PolicyNames())
}

// scopeContains reports whether base falls in ranges (nil = everything).
func scopeContains(base addr.Virt, ranges []addr.Range) bool {
	if ranges == nil {
		return true
	}
	for _, r := range ranges {
		if r.Contains(base) {
			return true
		}
	}
	return false
}

// scopeRangesOf resolves a scope provider (nil = everything).
func scopeRangesOf(scope func() []addr.Range) []addr.Range {
	if scope == nil {
		return nil
	}
	return scope()
}
