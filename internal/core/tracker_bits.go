package core

import (
	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/kstaled"
	"thermostat/internal/pagetable"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
)

// bitIdleDemoteScans is how many consecutive idle scans make a page's rate
// estimate drop to zero (kstaled's classic "idle for N windows" rule).
const bitIdleDemoteScans = 3

// bitTracker estimates access rates from a single page-table bit: the
// Accessed bit (kstaled-style idle bitmap, tracker name "idlebit") or the
// Dirty bit (soft-dirty write tracking, tracker name "softdirty").
//
// The bit is binary — it says *whether* a page was touched in a scan
// window, never *how often* — so the tracker converts scan history into a
// coarse rate ladder: a page touched this window is assumed hot at twice
// the cgroup's target slow-access rate, each consecutive idle window halves
// that, and bitIdleDemoteScans idle windows round it down to zero. This is
// exactly the fidelity gap (paper §2, Figure 2) that motivates poison-based
// counting; the tracker exists so the policy matrix can measure the gap.
//
// The softdirty variant inherits a second blindness: read-only hot pages
// never set the Dirty bit, so read-mostly working sets look cold to it.
type bitTracker struct {
	name  string
	group *cgroup.Group
	m     *sim.Machine
	view  View

	flag    pagetable.Flags
	scanner *kstaled.Scanner

	scope func() []addr.Range

	// scannedTick guards the one scan-and-clear pass per sampling period;
	// MeasureCold and Estimates share its result, Arm resets it.
	scannedTick bool

	sampled stats.Counter
}

// newIdleBitTracker builds the kstaled-backed idle-bitmap tracker. The seed
// is accepted for registry uniformity; bit scanning draws no randomness.
func newIdleBitTracker(group *cgroup.Group, seed uint64) *bitTracker {
	_ = seed
	return &bitTracker{name: "idlebit", group: group, flag: pagetable.Accessed}
}

// newSoftDirtyTracker builds the soft-dirty write tracker: identical scan
// machinery over the Dirty bit.
func newSoftDirtyTracker(group *cgroup.Group, seed uint64) *bitTracker {
	_ = seed
	return &bitTracker{name: "softdirty", group: group, flag: pagetable.Dirty}
}

// Name implements Tracker.
func (t *bitTracker) Name() string { return t.name }

// Attach implements Tracker.
func (t *bitTracker) Attach(m *sim.Machine, view View) error {
	t.m = m
	t.view = view
	t.scanner = kstaled.NewWithFlag(m.PageTable(), m.TLB(), m.VPID(), 0, t.flag)
	return nil
}

// StateBytes reports the tracker's resident metadata (the scanner's
// per-region scan histories).
func (t *bitTracker) StateBytes() uint64 {
	if t.scanner == nil {
		return 0
	}
	return t.scanner.StateBytes()
}

// SetScope implements Tracker. Like the real kstaled, the scan pass itself
// walks the whole page table (clearing bits is global); the scope only
// restricts which pages produce estimates.
func (t *bitTracker) SetScope(provider func() []addr.Range) { t.scope = provider }

// Coverage implements Tracker: every scan covers the whole footprint.
func (t *bitTracker) Coverage() float64 { return 1.0 }

// Sampled implements Tracker: 2MB pages visited across all scan passes.
func (t *bitTracker) Sampled() uint64 { return t.sampled.Value() }

// NotePlaced implements Tracker: bit state carries across migrations
// unchanged (the PTE moves with the page), so nothing rebases.
func (t *bitTracker) NotePlaced(base addr.Virt) {}

// Arm implements Tracker: the next period gets a fresh scan pass.
func (t *bitTracker) Arm() error {
	t.scannedTick = false
	return nil
}

// ensureScanned runs the period's single scan-and-clear pass on first use.
func (t *bitTracker) ensureScanned() {
	if t.scannedTick {
		return
	}
	t.scannedTick = true
	res := t.scanner.Scan()
	t.m.ChargeDaemon(res.CostNs)
}

// assumedHotRate is the rate ascribed to a page whose bit was set this
// window: twice the target slow-access rate, so one touched cold page is
// enough to trigger the threshold policy's correction and a touched
// top-tier page can never fit in its demotion budget.
func (t *bitTracker) assumedHotRate() float64 {
	return 2 * t.group.Params().TargetSlowAccessRate()
}

// rateOf converts a page's scan history into the coarse rate ladder.
func (t *bitTracker) rateOf(base addr.Virt) float64 {
	st := t.scanner.State(base)
	if st == nil || st.IdleScans >= bitIdleDemoteScans {
		return 0
	}
	return t.assumedHotRate() / float64(uint64(1)<<uint(st.IdleScans))
}

// MeasureCold implements Tracker.
func (t *bitTracker) MeasureCold(cold []addr.Virt, intervalSec float64) []Measured {
	t.ensureScanned()
	out := make([]Measured, 0, len(cold))
	for _, base := range cold {
		out = append(out, Measured{Base: base, Rate: t.rateOf(base)})
	}
	return out
}

// Estimates implements Tracker: one estimate per in-scope top-tier huge
// page, in ascending base order (ScanHuge visits in address order).
func (t *bitTracker) Estimates(intervalSec float64) ([]Estimate, error) {
	t.ensureScanned()
	ranges := scopeRangesOf(t.scope)
	var ests []Estimate
	t.m.PageTable().ScanHuge(func(base addr.Virt) {
		if !scopeContains(base, ranges) || t.view.IsCold(base) {
			return
		}
		ests = append(ests, Estimate{Base: base, Rate: t.rateOf(base)})
		t.sampled.Inc()
	})
	return ests, nil
}
