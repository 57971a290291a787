// Package walk models the cost of hardware page-table walks, natively and
// under nested (two-dimensional) paging.
//
// A native x86-64 walk touches one page-table entry per level: 4 memory
// accesses for a 4KB mapping, 3 for a 2MB mapping. Under virtualization with
// EPT/NPT every guest-walk step is itself translated by a host walk, giving
// the (g+1)·(h+1)−1 access count the paper cites: up to 24 accesses when
// both guest and host use 4KB pages, and 15 when both use 2MB pages. This
// asymmetry is the page-walk half of Table 1's huge-page advantage.
//
// Real walkers hit most steps in the page-walk caches and the data caches;
// the model exposes a hit ratio so the simulated walk latency lands in a
// realistic range rather than charging full memory latency per step.
package walk

import "fmt"

// Depth4K and Depth2M are native walk depths by mapping grain.
const (
	// Depth4K is the number of levels touched translating a 4KB mapping.
	Depth4K = 4
	// Depth2M is the number of levels touched translating a 2MB mapping.
	Depth2M = 3
)

// accesses returns the number of page-table memory accesses for a walk where
// the guest mapping walk has depth gDepth. For a native (non-virtualized)
// walk hDepth is ignored. For a nested walk, every guest step plus the final
// guest-physical access is translated by an (hDepth+1)-access host walk,
// minus the final data access itself: (g+1)·(h+1)−1.
func accesses(nested bool, gDepth, hDepth int) int {
	if gDepth <= 0 {
		panic(fmt.Sprintf("walk: non-positive guest depth %d", gDepth))
	}
	if !nested {
		return gDepth
	}
	if hDepth <= 0 {
		panic(fmt.Sprintf("walk: non-positive host depth %d", hDepth))
	}
	return (gDepth+1)*(hDepth+1) - 1
}

// Config parameterizes walk latency.
type Config struct {
	// CachedStepLatency is the latency (ns) of a walk step that hits the
	// page-walk/data caches.
	CachedStepLatency int64
	// MemStepLatency is the latency (ns) of a walk step that goes to DRAM.
	MemStepLatency int64
	// CacheHitRatio is the fraction of walk steps served by caches,
	// in [0, 1].
	CacheHitRatio float64
}

// DefaultConfig returns a model calibrated so native 4KB walks cost tens of
// nanoseconds and worst-case nested 4KB walks a couple hundred — the regime
// in which the paper's Table 1 gains (6-30%) arise.
func DefaultConfig() Config {
	return Config{CachedStepLatency: 5, MemStepLatency: 80, CacheHitRatio: 0.85}
}

// Model converts walk access counts into latency.
type Model struct {
	cfg Config
}

// NewModel validates cfg and builds a model.
func NewModel(cfg Config) (*Model, error) {
	if cfg.CacheHitRatio < 0 || cfg.CacheHitRatio > 1 {
		return nil, fmt.Errorf("walk: CacheHitRatio %v outside [0, 1]", cfg.CacheHitRatio)
	}
	if cfg.CachedStepLatency < 0 || cfg.MemStepLatency <= 0 {
		return nil, fmt.Errorf("walk: non-positive step latencies %+v", cfg)
	}
	return &Model{cfg: cfg}, nil
}

// stepLatency returns the expected latency of one walk step.
func (m *Model) stepLatency() float64 {
	return m.cfg.CacheHitRatio*float64(m.cfg.CachedStepLatency) +
		(1-m.cfg.CacheHitRatio)*float64(m.cfg.MemStepLatency)
}

// Latency returns the expected total latency (ns) of a walk with the given
// shape.
func (m *Model) Latency(nested bool, gDepth, hDepth int) int64 {
	n := accesses(nested, gDepth, hDepth)
	return int64(float64(n) * m.stepLatency())
}
