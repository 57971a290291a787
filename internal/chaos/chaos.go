// Package chaos provides deterministic fault injection for the simulator's
// migration and sampling machinery. An Injector is seeded once, draws from
// its own rng stream (independent of the workload and placement streams even
// under equal seeds), and stamps every injected fault with the machine's
// virtual clock so chaos runs replay bit-identically across worker counts.
//
// The zero-rate contract: a site whose rate is zero never consumes a random
// draw, so an Injector configured with all-zero rates is provably inert —
// wiring it in cannot perturb any rng sequence or any simulated state. A nil
// *Injector is equally inert; every method is nil-receiver safe.
package chaos

import (
	"errors"
	"fmt"

	"thermostat/internal/rng"
)

// chaosStream is the dedicated PCG stream for fault injection. It differs
// from rng.New's default stream so chaos draws never correlate with workload
// key draws at equal seeds.
const chaosStream = 0x9e3779b97f4a7c15

// Site identifies a fault-injection point in the migration/sampling stack.
type Site int

const (
	// MigrateCopy fails a migration mid-copy, after the destination frame
	// has been allocated and (for split regions) part of the children have
	// been remapped. Exercises the transactional rollback path.
	MigrateCopy Site = iota
	// DestFull fails a migration before allocation, simulating destination
	// tier pressure. Surfaces as mem.ErrOutOfMemory to callers.
	DestFull
	// TLBShootdown loses the TLB shootdown after the copy completed; the
	// migrator treats the move as failed and rolls back.
	TLBShootdown
	// PoisonArm fails arming a PTE poison (BadgerTrap sampling).
	PoisonArm
	// PoisonDisarm fails clearing a PTE poison before promotion.
	PoisonDisarm

	// numSites is the number of injection sites; not itself a site.
	numSites
)

// String returns the site's stable lowercase name.
func (s Site) String() string {
	switch s {
	case MigrateCopy:
		return "migrate-copy"
	case DestFull:
		return "dest-full"
	case TLBShootdown:
		return "tlb-shootdown"
	case PoisonArm:
		return "poison-arm"
	case PoisonDisarm:
		return "poison-disarm"
	}
	return fmt.Sprintf("site(%d)", int(s))
}

// Fault is an injected failure. It implements error; Unwrap exposes the
// simulated underlying condition (e.g. mem.ErrOutOfMemory for DestFull) so
// errors.Is keeps working through the chaos layer.
type Fault struct {
	Site      Site
	TimeNs    int64 // virtual time of injection
	Permanent bool  // retrying can never succeed for this page
	Cause     error // optional simulated condition, set by the fault site
}

func (f *Fault) Error() string {
	mode := "transient"
	if f.Permanent {
		mode = "permanent"
	}
	if f.Cause != nil {
		return fmt.Sprintf("chaos: %s %s fault at t=%dns: %v", mode, f.Site, f.TimeNs, f.Cause)
	}
	return fmt.Sprintf("chaos: %s %s fault at t=%dns", mode, f.Site, f.TimeNs)
}

func (f *Fault) Unwrap() error { return f.Cause }

// AsFault extracts the injected *Fault from err's chain, if any.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// IsInjected reports whether err originates from an injected fault.
func IsInjected(err error) bool {
	_, ok := AsFault(err)
	return ok
}

// Config selects fault rates. The zero value disables injection entirely.
type Config struct {
	// Seed seeds the injector's private rng stream.
	Seed uint64
	// Rate is the default per-site injection probability in [0, 1].
	Rate float64
	// SiteRates overrides Rate per site. A negative override disables the
	// site even when Rate is positive.
	SiteRates map[Site]float64
	// PermanentFraction is the probability, given an injected fault at a
	// migration site, that it is permanent (retries can never succeed).
	PermanentFraction float64
}

// enabled reports whether any site has a positive injection rate.
func (c Config) enabled() bool {
	if c.Rate > 0 {
		return true
	}
	for _, r := range c.SiteRates {
		if r > 0 {
			return true
		}
	}
	return false
}

// Report is a point-in-time summary of chaos activity, combining injector
// counts with the downstream handling counters (rollbacks from the
// migrator, retries/quarantines from the policy engine).
type Report struct {
	Injected    uint64           // faults injected, total
	Permanent   uint64           // of which permanent
	BySite      [numSites]uint64 // injected, per site
	Retried     uint64           // migration attempts retried after a failure
	RolledBack  uint64           // migration transactions aborted and undone
	Quarantined uint64           // pages quarantined after permanent/exhausted failure
}

// Injector decides, per fault site, whether an operation fails. All methods
// are nil-receiver safe (a nil Injector never injects).
type Injector struct {
	r     *rng.PCG
	rates [numSites]float64
	perm  float64

	injected  uint64
	permanent uint64
	bySite    [numSites]uint64
}

// New builds an Injector from cfg. Returns nil when cfg is disabled, so
// callers can wire the result unconditionally.
func New(cfg Config) *Injector {
	if !cfg.enabled() {
		return nil
	}
	in := &Injector{
		r:    rng.NewStream(cfg.Seed, chaosStream),
		perm: cfg.PermanentFraction,
	}
	for s := Site(0); s < numSites; s++ {
		in.rates[s] = cfg.Rate
		if r, ok := cfg.SiteRates[s]; ok {
			in.rates[s] = r
		}
	}
	return in
}

// Inject rolls the dice for site at virtual time now. Returns a *Fault to
// inject, or nil to let the operation proceed. A site with rate <= 0 returns
// nil without consuming a random draw (the zero-rate inertness contract);
// rate >= 1 always fires, also without a draw, so forced-failure tests stay
// on the same rng sequence regardless of call count.
func (in *Injector) Inject(site Site, now int64) *Fault {
	if in == nil {
		return nil
	}
	rate := in.rates[site]
	if rate <= 0 {
		return nil
	}
	if rate < 1 && in.r.Float64() >= rate {
		return nil
	}
	f := &Fault{Site: site, TimeNs: now}
	if in.perm > 0 && (site == MigrateCopy || site == DestFull || site == TLBShootdown) {
		if in.perm >= 1 || in.r.Float64() < in.perm {
			f.Permanent = true
			in.permanent++
		}
	}
	in.injected++
	in.bySite[site]++
	return f
}

// SetRates retunes the uniform per-site fault probability and the permanent
// fraction on a live injector — the daemon's hot-reload path for the chaos
// knobs. The rng stream is untouched, so a retune is deterministic given
// its virtual-time position; rates outside [0, 1] are clamped. Must be
// called from the simulation goroutine (tick hooks qualify). A nil
// injector ignores the call: chaos cannot be switched on after the fact,
// because a disabled config installs no injector at all.
func (in *Injector) SetRates(rate, permanentFraction float64) {
	if in == nil {
		return
	}
	rate = clamp01(rate)
	for s := Site(0); s < numSites; s++ {
		in.rates[s] = rate
	}
	in.perm = clamp01(permanentFraction)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// AbortIndex picks the child index at which a mid-copy abort strikes, for a
// region of n children. Deterministic given the injector's stream position.
// A nil injector returns 0.
func (in *Injector) AbortIndex(n int) int {
	if in == nil || n <= 1 {
		return 0
	}
	return in.r.Intn(n)
}

// Report returns the injector's cumulative counts. Downstream handling
// counters (Retried/RolledBack/Quarantined) are zero here; the machine and
// engine layers fill them in. A nil injector reports all zeros.
func (in *Injector) Report() Report {
	if in == nil {
		return Report{}
	}
	return Report{
		Injected:  in.injected,
		Permanent: in.permanent,
		BySite:    in.bySite,
	}
}
