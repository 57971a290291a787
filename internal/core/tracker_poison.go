package core

import (
	"fmt"
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/kstaled"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
)

// Modeled daemon CPU costs (charged off the application critical path, as
// the paper's kthread runs on spare cores).
const (
	splitCostNs    = 2000
	collapseCostNs = 2000
	poisonCostNs   = 500
	perLeafScanNs  = kstaled.DefaultEntryCostNs
)

// sample tracks one huge page through a sampling cycle.
type sample struct {
	base      addr.Virt
	wasCold   bool
	nAccessed int
	poisoned  []addr.Virt
}

// PoisonTracker is the paper's PTE-poisoning sampler (§3.2): a pipelined
// three-scan cycle that, every tick, splits a fresh random sampleFraction
// cohort of huge pages, poisons up to K accessed 4KB children of the cohort
// split last tick, and turns the fault counts of the cohort poisoned last
// tick into access-rate estimates. Cold pages stay PMD-poisoned between
// samples, so MeasureCold reads whole-page fault counts for free.
type PoisonTracker struct {
	group *cgroup.Group
	r     *rng.PCG
	m     *sim.Machine
	view  View

	// The sampling cycle is pipelined (Figure 4's three scans overlap
	// across cohorts): every tick classifies the cohort poisoned last
	// tick, poisons the cohort split last tick, and splits a fresh 5%
	// cohort — so a full sample fraction completes every scan interval.
	splitCohort    map[addr.Virt]*sample
	poisonedCohort map[addr.Virt]*sample

	// seen holds per-page fault-count snapshots so the tracker consumes
	// count *deltas* instead of resetting the shared trap — multiple
	// engines (one per cgroup) can then coexist on one machine.
	seen map[addr.Virt]uint64

	// scope, when set, restricts sampling to the returned address ranges.
	scope func() []addr.Range

	// noPrefilter disables the §3.2 Accessed-bit pre-filter (ablation).
	noPrefilter bool

	sampled stats.Counter
}

// NewPoisonTracker builds the Thermostat sampler drawing parameters from
// group and randomness from seed. It consumes the plain seed rng stream, so
// composed with the threshold policy it replays the monolithic engine's
// exact random sequence.
func NewPoisonTracker(group *cgroup.Group, seed uint64) *PoisonTracker {
	return &PoisonTracker{
		group:          group,
		r:              rng.New(seed),
		splitCohort:    make(map[addr.Virt]*sample),
		poisonedCohort: make(map[addr.Virt]*sample),
		seen:           make(map[addr.Virt]uint64),
	}
}

// Name implements Tracker.
func (t *PoisonTracker) Name() string { return "poison" }

// Attach implements Tracker.
func (t *PoisonTracker) Attach(m *sim.Machine, view View) error {
	t.m = m
	t.view = view
	return nil
}

// SetScope implements Tracker.
func (t *PoisonTracker) SetScope(provider func() []addr.Range) { t.scope = provider }

// SetPrefilter enables or disables the §3.2 two-step refinement: with the
// pre-filter off, the sampler poisons K uniformly random children instead
// of K random *accessed* children and scales estimates by the full 512 —
// the naive strategy the paper rejects because sparse hot children are
// easily missed. For ablation studies.
func (t *PoisonTracker) SetPrefilter(on bool) { t.noPrefilter = !on }

// Coverage implements Tracker: one sampleFraction cohort completes per
// interval.
func (t *PoisonTracker) Coverage() float64 { return t.group.Params().SampleFraction }

// Sampled implements Tracker.
func (t *PoisonTracker) Sampled() uint64 { return t.sampled.Value() }

// InflightPages returns the number of huge pages currently split for
// sampling (both pipeline cohorts).
func (t *PoisonTracker) InflightPages() int { return len(t.splitCohort) + len(t.poisonedCohort) }

// delta returns the page's fault-count increase since this tracker last
// looked, without disturbing the shared trap state. base is always the base
// address of a currently-mapped leaf (a cold huge page or a split child), so
// the trap's CountLeaf fast path applies.
func (t *PoisonTracker) delta(base addr.Virt) uint64 {
	c := t.m.Trap().CountLeaf(base)
	d := c - t.seen[base]
	t.seen[base] = c
	return d
}

// snapshot records the page's current count as already-consumed, so the
// next delta covers only events from now on.
func (t *PoisonTracker) snapshot(base addr.Virt) {
	t.seen[base] = t.m.Trap().CountLeaf(base)
}

// NotePlaced implements Tracker: a migrated page's fault counter rebases.
func (t *PoisonTracker) NotePlaced(base addr.Virt) { t.snapshot(base) }

// inflight reports whether base is in either sampling cohort.
func (t *PoisonTracker) inflight(base addr.Virt) bool {
	if _, ok := t.splitCohort[base]; ok {
		return true
	}
	_, ok := t.poisonedCohort[base]
	return ok
}

// cohortSorted returns the cohort's samples in ascending base order, the
// canonical iteration order for rng draws and telemetry events (Go map
// order must not leak into either).
func cohortSorted(cohort map[addr.Virt]*sample) []*sample {
	out := make([]*sample, 0, len(cohort))
	for _, s := range cohort {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].base < out[j].base })
	return out
}

// MeasureCold implements Tracker: every cold page stays PMD-poisoned, so
// its access rate over the interval is its fault-count delta. Pages
// mid-pipeline are skipped — their counts are consumed at classify.
func (t *PoisonTracker) MeasureCold(cold []addr.Virt, intervalSec float64) []Measured {
	out := make([]Measured, 0, len(cold))
	for _, base := range cold {
		if t.inflight(base) {
			continue // being re-sampled; counted at classify
		}
		d := t.delta(base)
		out = append(out, Measured{
			Base: base,
			Rate: float64(d) / intervalSec,
		})
	}
	return out
}

// Estimates implements Tracker: it closes the pipeline's classify scan —
// estimate each sampled page's access rate from the poison-fault deltas,
// then restore every sampled page to a huge mapping (re-arming PMD-grain
// monitoring on the still-cold ones).
func (t *PoisonTracker) Estimates(intervalSec float64) ([]Estimate, error) {
	var fastEsts []Estimate
	var daemon int64
	cohort := cohortSorted(t.poisonedCohort)
	for _, s := range cohort {
		if s.wasCold {
			// Whole region was poisoned: total faults are the estimate.
			// The rate feeds the corrector via MeasureCold next interval;
			// here the delta consumption is what matters.
			var faults uint64
			for i := 0; i < addr.PagesPerHuge; i++ {
				faults += t.delta(s.base + addr.Virt(uint64(i)*addr.PageSize4K))
			}
			_ = float64(faults) / intervalSec
		} else {
			var faults uint64
			for _, child := range s.poisoned {
				faults += t.delta(child)
			}
			rate := ScaleEstimate(faults, intervalSec, s.nAccessed, len(s.poisoned))
			fastEsts = append(fastEsts, Estimate{Base: s.base, Rate: rate})
		}
		daemon += int64(addr.PagesPerHuge) * perLeafScanNs
	}
	// fastEsts is in base order: cohortSorted is.

	// Restore all sampled pages to huge mappings.
	for _, s := range cohort {
		if err := t.restore(s); err != nil {
			return nil, err
		}
		daemon += collapseCostNs
	}
	t.poisonedCohort = make(map[addr.Virt]*sample)
	t.m.ChargeDaemon(daemon)
	return fastEsts, nil
}

// restore collapses a sampled page back to a 2MB mapping, clearing child
// poisons first and re-arming PMD-grain monitoring if the page is cold.
func (t *PoisonTracker) restore(s *sample) error {
	pt := t.m.PageTable()
	region := addr.NewRange(s.base, addr.PageSize2M)
	if n := pt.ClearFlagsRange(region, pagetable.Poisoned); n != addr.PagesPerHuge {
		return fmt.Errorf("core: sampled children of %s vanished (%d of %d left)",
			s.base, n, addr.PagesPerHuge)
	}
	if err := pt.Collapse(s.base); err != nil {
		return fmt.Errorf("core: collapse %s: %w", s.base, err)
	}
	t.m.TLB().Invalidate(s.base, t.m.VPID())
	if rec := t.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{
			Kind: telemetry.KindHugePageCollapse, TimeNs: t.m.Clock(), Page: s.base,
		})
	}
	// The children are gone, so their snapshots go too: scanPoison takes a
	// fresh one before any later read. This comes before the re-arm because
	// child 0 shares its key with the huge page's base.
	if s.wasCold {
		for i := 0; i < addr.PagesPerHuge; i++ {
			delete(t.seen, s.base+addr.Virt(uint64(i)*addr.PageSize4K))
		}
	} else {
		for _, child := range s.poisoned {
			delete(t.seen, child)
		}
	}
	if t.view.IsCold(s.base) {
		if err := t.m.Trap().Poison(s.base, t.m.VPID()); err != nil {
			return err
		}
		t.snapshot(s.base)
	}
	return nil
}

// StateBytes reports the tracker's resident metadata: both pipeline cohorts
// and the fault-count snapshot map, which holds one entry per cold huge page
// plus the poisoned children of the cohort in flight (all 512 of a cold
// sample's) — restore drops a sample's child entries with its PT node.
func (t *PoisonTracker) StateBytes() uint64 {
	// sample record + map slot: ~64 bytes; uint64 map slot: ~24.
	return uint64(len(t.splitCohort)+len(t.poisonedCohort))*64 +
		uint64(len(t.seen))*24
}

// Arm implements Tracker: run the poison scan over the cohort split last
// interval, then split a fresh cohort whose Accessed bits accumulate over
// the next interval.
func (t *PoisonTracker) Arm() error {
	if err := t.scanPoison(); err != nil {
		return err
	}
	return t.scanSplit()
}

// splitCandidates returns the in-scope, non-inflight huge pages in address
// order.
func (t *PoisonTracker) splitCandidates() []addr.Virt {
	ranges := scopeRangesOf(t.scope)
	var out []addr.Virt
	t.m.PageTable().ScanHuge(func(base addr.Virt) {
		if !t.inflight(base) && scopeContains(base, ranges) {
			out = append(out, base)
		}
	})
	return out
}

// scanSplit selects a random sampleFraction of all huge pages — hot or cold,
// the sampler is agnostic (§3.2) — and splits them so their 4KB children can
// be profiled individually. Pages already mid-pipeline are excluded. All
// mutations (splits, cohort inserts, rng draws) happen after the candidate
// scan, in sampled order.
func (t *PoisonTracker) scanSplit() error {
	pt := t.m.PageTable()
	candidates := t.splitCandidates()
	var daemon int64 = int64(len(candidates)) * perLeafScanNs
	if len(candidates) == 0 {
		t.m.ChargeDaemon(daemon)
		return nil
	}
	f := t.group.Params().SampleFraction
	n := int(f * float64(len(candidates)))
	if n < 1 {
		n = 1
	}
	rec := t.m.Recorder()
	for _, idx := range t.r.Sample(len(candidates), n) {
		base := candidates[idx]
		if err := pt.Split(base); err != nil {
			return fmt.Errorf("core: split %s: %w", base, err)
		}
		// Splitting replaced the 2MB translation with 4KB ones; drop the
		// stale huge-grain TLB entry.
		t.m.TLB().Invalidate(base, t.m.VPID())
		t.splitCohort[base] = &sample{base: base, wasCold: t.view.IsCold(base)}
		t.sampled.Inc()
		if rec != nil {
			rec.Event(telemetry.Event{
				Kind: telemetry.KindHugePageSplit, TimeNs: t.m.Clock(), Page: base,
			})
			rec.Event(telemetry.Event{
				Kind: telemetry.KindPageSampled, TimeNs: t.m.Clock(),
				Page: base, Cold: t.view.IsCold(base),
			})
		}
		daemon += splitCostNs
	}
	t.m.ChargeDaemon(daemon)
	return nil
}

// scanPoison runs the §3.2 two-step refinement for each sampled page: read
// the hardware-maintained Accessed bits of all 512 children to find those
// with non-zero access rate, then poison a random subset of at most K of
// them for precise fault-based counting.
//
// Pages that were already cold need no subset selection: their children
// inherited the poison bit from the cold page's PMD at split time, so every
// access is already being counted.
func (t *PoisonTracker) scanPoison() error {
	trap := t.m.Trap()
	k := t.group.Params().MaxPoisonPerHuge
	var daemon int64
	for _, s := range cohortSorted(t.splitCohort) {
		daemon += int64(addr.PagesPerHuge) * perLeafScanNs
		if s.wasCold {
			s.nAccessed = addr.PagesPerHuge
			s.poisoned = nil // estimate uses the whole-region fault count
			// Counting starts now: absorb events from the split interval.
			for i := 0; i < addr.PagesPerHuge; i++ {
				t.snapshot(s.base + addr.Virt(uint64(i)*addr.PageSize4K))
			}
			continue
		}
		var accessed []int
		if t.noPrefilter {
			// Naive strategy (ablation): all children are candidates and
			// the estimate scales by the full 512.
			accessed = make([]int, addr.PagesPerHuge)
			for i := range accessed {
				accessed[i] = i
			}
		} else {
			accessed = kstaled.AccessedSubpages(t.m.PageTable(), s.base)
		}
		s.nAccessed = len(accessed)
		if s.nAccessed == 0 {
			continue
		}
		nPoison := k
		if nPoison > s.nAccessed {
			nPoison = s.nAccessed
		}
		for _, pick := range t.r.Sample(s.nAccessed, nPoison) {
			child := s.base + addr.Virt(uint64(accessed[pick])*addr.PageSize4K)
			if err := trap.Poison(child, t.m.VPID()); err != nil {
				return err
			}
			t.snapshot(child)
			s.poisoned = append(s.poisoned, child)
			daemon += poisonCostNs
		}
	}
	// Advance the cohort down the pipeline.
	for base, s := range t.splitCohort {
		t.poisonedCohort[base] = s
	}
	t.splitCohort = make(map[addr.Virt]*sample)
	t.m.ChargeDaemon(daemon)
	return nil
}
