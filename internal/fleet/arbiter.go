// Package fleet arbitrates one two-tiered memory hierarchy among many
// tenants. Each tenant runs its own Tracker × Policy engine against its own
// slowdown objective; the fleet layer owns the machine-wide DRAM budget and
// redistributes it every arbiter period: floors first, then surplus in
// proportion to priority, boosted for tenants currently missing their SLO.
// Grants are enforced through the tenants' cgroups (SetLimit + Squeeze).
//
// Everything here is deterministic: the arbiter is a pure integer function
// of its inputs, the run loop interleaves tenants by smooth weighted
// round-robin, and churn follows an explicit virtual-time schedule. A fleet
// of one tenant with the full pool degenerates to exactly the single-tenant
// sim.Run loop — bit-identical counters and telemetry — which is the
// anchor the differential tests pin.
package fleet

import (
	"errors"
	"fmt"
)

// Demand is one tenant's input to an arbitration round.
type Demand struct {
	// Name identifies the tenant (reports only; the arbiter is positional).
	Name string
	// Priority weights surplus distribution (must be >= 1).
	Priority int
	// FloorBytes is the guaranteed minimum grant.
	FloorBytes uint64
	// DemandBytes is the tenant's current total footprint. Informational:
	// grants may exceed it (idle headroom is how fleet-wide savings show
	// up — granted-but-unused DRAM is measured, not spent).
	DemandBytes uint64
	// SlowdownPct is the tenant engine's own slowdown estimate (measured
	// cold-access rate × slow-memory latency); SLOPct its objective.
	// SlowdownPct > SLOPct boosts the tenant's surplus weight.
	SlowdownPct float64
	SLOPct      float64
}

// errOversubscribed reports that the tenants' floors alone exceed the pool.
var errOversubscribed = errors.New("fleet: floor grants oversubscribe the pool")

// sloBoostCap bounds the SLO-pressure multiplier so one badly-missing
// tenant cannot starve the rest of the surplus.
const sloBoostCap = 4

// weight is the tenant's surplus share: priority, multiplied by how badly
// it is missing its SLO (clamped to sloBoostCap). A tenant with no SLO
// (SLOPct <= 0) never gets a boost.
func weight(d Demand) uint64 {
	w := uint64(d.Priority)
	if d.SLOPct > 0 && d.SlowdownPct > d.SLOPct {
		boost := uint64(d.SlowdownPct / d.SLOPct)
		if boost < 2 {
			boost = 2
		}
		if boost > sloBoostCap {
			boost = sloBoostCap
		}
		w *= boost
	}
	return w
}

// Arbitrate splits poolBytes among the tenants: every tenant receives its
// floor, and the surplus is divided in proportion to weight() using integer
// arithmetic with the sub-byte remainder handed to the first tenant — fully
// deterministic, no rounding drift. The whole pool is always handed out
// (granted-but-unused DRAM is the fleet's measured saving).
//
// Invariants, for every error-free return (enforced by FuzzFleetArbiter):
//
//	sum(grants) == poolBytes
//	grants[i] >= ds[i].FloorBytes for all i
//
// A single tenant always receives the full pool, which is what keeps the
// degenerate one-tenant fleet bit-identical to a solo run.
func Arbitrate(poolBytes uint64, ds []Demand) ([]uint64, error) {
	if len(ds) == 0 {
		return nil, nil
	}
	var floors uint64
	for i, d := range ds {
		if d.Priority < 1 {
			return nil, fmt.Errorf("fleet: tenant %d (%s) priority %d < 1", i, d.Name, d.Priority)
		}
		if d.FloorBytes > poolBytes-floors {
			return nil, errOversubscribed
		}
		floors += d.FloorBytes
	}
	surplus := poolBytes - floors
	var totalW uint64
	for _, d := range ds {
		totalW += weight(d)
	}
	grants := make([]uint64, len(ds))
	var handed uint64
	for i, d := range ds {
		extra := surplus / totalW * weight(d)
		// Two-step division instead of surplus*w/totalW: immune to
		// overflow for any pool size, still deterministic. The per-tenant
		// truncation loss goes to tenant 0 below.
		grants[i] = d.FloorBytes + extra
		handed += extra
	}
	grants[0] += surplus - handed
	return grants, nil
}
