// Package cgroup models the Linux memory-cgroup control surface Thermostat
// hangs its knobs on (§3.1): all processes in a group share the Thermostat
// parameters — sampling period, sample fraction, poison budget, and the
// single headline input, the tolerable slowdown — and an administrator can
// retune them at runtime (§5.1 varies the slowdown target live).
package cgroup

import (
	"fmt"
	"sync"
)

// Params are the Thermostat knobs exposed through the cgroup filesystem.
type Params struct {
	// TolerableSlowdownPct is the user-specified maximum slowdown (the
	// paper's single input; 3 in the evaluation).
	TolerableSlowdownPct float64
	// SamplePeriodNs is the sampling period (scan interval); the paper
	// uses 30s and finds ≥10s has negligible overhead (§4.4).
	SamplePeriodNs int64
	// SampleFraction is the fraction of huge pages sampled per period
	// (0.05 in the evaluation).
	SampleFraction float64
	// MaxPoisonPerHuge caps poisoned 4KB pages per sampled huge page
	// (K = 50 in the evaluation).
	MaxPoisonPerHuge int
	// SlowMemLatencyNs is the assumed slow-memory access latency ts used
	// to translate the slowdown target into an access-rate budget (1us).
	SlowMemLatencyNs int64
}

// Default returns the paper's evaluated parameters.
func Default() Params {
	return Params{
		TolerableSlowdownPct: 3,
		SamplePeriodNs:       30 * 1e9,
		SampleFraction:       0.05,
		MaxPoisonPerHuge:     50,
		SlowMemLatencyNs:     1000,
	}
}

// validate rejects out-of-range parameters.
func (p Params) validate() error {
	if p.TolerableSlowdownPct <= 0 || p.TolerableSlowdownPct >= 100 {
		return fmt.Errorf("cgroup: tolerable slowdown %v%% outside (0, 100)", p.TolerableSlowdownPct)
	}
	if p.SamplePeriodNs <= 0 {
		return fmt.Errorf("cgroup: non-positive sample period %d", p.SamplePeriodNs)
	}
	if p.SampleFraction <= 0 || p.SampleFraction > 1 {
		return fmt.Errorf("cgroup: sample fraction %v outside (0, 1]", p.SampleFraction)
	}
	if p.MaxPoisonPerHuge <= 0 {
		return fmt.Errorf("cgroup: non-positive poison budget %d", p.MaxPoisonPerHuge)
	}
	if p.SlowMemLatencyNs <= 0 {
		return fmt.Errorf("cgroup: non-positive slow-memory latency %d", p.SlowMemLatencyNs)
	}
	return nil
}

// TargetSlowAccessRate translates the slowdown budget into the maximum
// tolerable aggregate access rate to slow memory, in accesses/second (§3.4):
// x% slowdown at ts per access allows x/(100·ts) accesses per second. With
// the paper's 3% and 1us this is the 30K accesses/sec line of Figure 3.
func (p Params) TargetSlowAccessRate() float64 {
	return p.TolerableSlowdownPct / 100 / (float64(p.SlowMemLatencyNs) * 1e-9)
}

// Group is one named cgroup whose parameters can be retuned at runtime.
// Reads and writes are safe for concurrent use.
//
// Groups form a hierarchy: a child created with NewChild charges its memory
// usage through every ancestor, mirroring the kernel's memory.current /
// memory.max propagation. See accounting.go for the charge protocol.
type Group struct {
	name   string
	parent *Group

	mu     sync.RWMutex
	params Params
	limit  uint64 // accounting limit in bytes; 0 = unlimited
	usage  uint64 // bytes currently charged
}

// NewGroup validates p and creates a group.
func NewGroup(name string, p Params) (*Group, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Group{name: name, params: p}, nil
}

// Params returns the current parameters.
func (g *Group) Params() Params {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.params
}

// Update validates and replaces the parameters (runtime retuning).
func (g *Group) Update(p Params) error {
	if err := p.validate(); err != nil {
		return err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.params = p
	return nil
}

// SetTolerableSlowdown retunes only the headline knob.
func (g *Group) SetTolerableSlowdown(pct float64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	p := g.params
	p.TolerableSlowdownPct = pct
	if err := p.validate(); err != nil {
		return err
	}
	g.params = p
	return nil
}
