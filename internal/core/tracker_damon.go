package core

import (
	"sort"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
)

// DAMON tracker tuning (mirroring the kernel defaults in spirit: a bounded
// region count keeps the per-interval sampling cost independent of the
// footprint).
const (
	damonSamplesPerRegion = 3
	damonMaxRegions       = 64
	// damonMergeDelta is the largest |nrAccesses| difference between two
	// adjacent regions that still counts as homogeneous (merge them).
	damonMergeDelta = 1
)

// damonRegion is a run of contiguous 2MB pages assumed to behave alike.
// pages holds the region's currently-mapped 2MB bases in ascending order;
// nrAccesses is how many of the last sample draws found the Accessed bit
// set.
type damonRegion struct {
	pages      []addr.Virt
	nrAccesses int
	sampleSize int
}

// DamonTracker estimates access rates by adaptive region sampling, after
// the kernel's DAMON: the address space is partitioned into regions of
// contiguous 2MB pages, each region is probed with a constant number of
// random single-page checks per interval (read-and-clear the Accessed
// bit), and regions split or merge by access homogeneity — neighbours that
// agree merge, regions whose own samples disagree split. Sampling cost per
// interval is O(regions × samples), not O(footprint), which is the DAMON
// trade: cheap, but a region's estimate smears over all its pages.
type DamonTracker struct {
	group *cgroup.Group
	m     *sim.Machine
	view  View
	r     *rng.PCG

	regions []damonRegion
	scope   func() []addr.Range

	scannedTick bool

	sampled stats.Counter
}

// NewDamonTracker builds the region sampler. Randomness (which page each
// region probe lands on, where a heterogeneous region splits) comes from a
// dedicated rng stream of seed, so composing this tracker never perturbs
// the workload or chaos streams.
func NewDamonTracker(group *cgroup.Group, seed uint64) *DamonTracker {
	return &DamonTracker{group: group, r: rng.NewStream(seed, streamDamon)}
}

// Name implements Tracker.
func (t *DamonTracker) Name() string { return "damon" }

// Attach implements Tracker.
func (t *DamonTracker) Attach(m *sim.Machine, view View) error {
	t.m = m
	t.view = view
	return nil
}

// SetScope implements Tracker.
func (t *DamonTracker) SetScope(provider func() []addr.Range) { t.scope = provider }

// Coverage implements Tracker: every page belongs to a sampled region, so
// each interval yields an estimate for the whole footprint.
func (t *DamonTracker) Coverage() float64 { return 1.0 }

// Sampled implements Tracker: cumulative single-page probes.
func (t *DamonTracker) Sampled() uint64 { return t.sampled.Value() }

// StateBytes implements Tracker: the region records (a slice header and two
// counters, 40 bytes) and their page lists.
func (t *DamonTracker) StateBytes() uint64 {
	b := uint64(len(t.regions)) * 40
	for i := range t.regions {
		b += uint64(len(t.regions[i].pages)) * 8
	}
	return b
}

// NotePlaced implements Tracker: region membership is by address, not
// tier, so a migration changes nothing.
func (t *DamonTracker) NotePlaced(base addr.Virt) {}

// Arm implements Tracker: the next period gets a fresh sampling pass.
func (t *DamonTracker) Arm() error {
	t.scannedTick = false
	return nil
}

// mappedPages lists the in-scope mapped 2MB bases in ascending order
// (ScanHuge visits in address order).
func (t *DamonTracker) mappedPages() []addr.Virt {
	ranges := scopeRangesOf(t.scope)
	var pages []addr.Virt
	t.m.PageTable().ScanHuge(func(base addr.Virt) {
		if scopeContains(base, ranges) {
			pages = append(pages, base)
		}
	})
	return pages
}

// syncRegions reconciles the region list with the currently-mapped pages:
// vanished pages drop out, new pages extend the nearest region or start
// fresh ones, and region page lists stay sorted. Regions are kept sorted by
// their first page.
func (t *DamonTracker) syncRegions(pages []addr.Virt) {
	known := make(map[addr.Virt]int, len(pages)*2)
	for i, reg := range t.regions {
		for _, p := range reg.pages {
			known[p] = i
		}
	}
	// Drop vanished pages.
	mapped := make(map[addr.Virt]bool, len(pages))
	for _, p := range pages {
		mapped[p] = true
	}
	for i := range t.regions {
		kept := t.regions[i].pages[:0]
		for _, p := range t.regions[i].pages {
			if mapped[p] {
				kept = append(kept, p)
			}
		}
		t.regions[i].pages = kept
	}
	// Adopt new pages: contiguous runs of unknown pages become regions.
	var run []addr.Virt
	flush := func() {
		if len(run) > 0 {
			t.regions = append(t.regions, damonRegion{pages: run})
			run = nil
		}
	}
	for _, p := range pages {
		if _, ok := known[p]; ok {
			flush()
			continue
		}
		if len(run) > 0 && run[len(run)-1]+addr.Virt(addr.PageSize2M) != p {
			flush()
		}
		run = append(run, p)
	}
	flush()
	// Compact empties and restore address order.
	kept := t.regions[:0]
	for _, reg := range t.regions {
		if len(reg.pages) > 0 {
			kept = append(kept, reg)
		}
	}
	t.regions = kept
	sort.Slice(t.regions, func(i, j int) bool { return t.regions[i].pages[0] < t.regions[j].pages[0] })
}

// probe checks one 2MB page's Accessed bit and rearms it (clear + TLB
// flush) so the next interval observes fresh accesses.
func (t *DamonTracker) probe(base addr.Virt) bool {
	prior, ok := t.m.PageTable().ClearFlags(base, pagetable.Accessed)
	if !ok {
		return false
	}
	if prior.Has(pagetable.Accessed) {
		t.m.TLB().Invalidate(base, t.m.VPID())
		return true
	}
	return false
}

// ensureScanned runs the period's sampling pass on first use: probe every
// region, then merge homogeneous neighbours and split heterogeneous
// regions.
func (t *DamonTracker) ensureScanned() {
	if t.scannedTick {
		return
	}
	t.scannedTick = true
	t.syncRegions(t.mappedPages())

	var daemon int64
	for i := range t.regions {
		reg := &t.regions[i]
		n := damonSamplesPerRegion
		if n > len(reg.pages) {
			n = len(reg.pages)
		}
		reg.sampleSize = n
		reg.nrAccesses = 0
		for _, idx := range t.r.Sample(len(reg.pages), n) {
			if t.probe(reg.pages[idx]) {
				reg.nrAccesses++
			}
			t.sampled.Inc()
			daemon += perLeafScanNs
		}
	}
	t.adapt()
	t.m.ChargeDaemon(daemon)
}

// adapt is the DAMON split/merge step. Merge first: adjacent regions whose
// nrAccesses agree within damonMergeDelta fuse (their samples pool).
// Then split: a region whose own samples disagreed — some accessed, some
// not — is not homogeneous, so it splits at a random page boundary, while
// the region count stays under damonMaxRegions.
func (t *DamonTracker) adapt() {
	// Merge pass (left to right, deterministic).
	merged := t.regions[:0]
	for _, reg := range t.regions {
		if len(merged) > 0 {
			prev := &merged[len(merged)-1]
			last := prev.pages[len(prev.pages)-1]
			adjacent := last+addr.Virt(addr.PageSize2M) == reg.pages[0]
			delta := prev.nrAccesses - reg.nrAccesses
			if delta < 0 {
				delta = -delta
			}
			if adjacent && delta <= damonMergeDelta {
				prev.pages = append(prev.pages, reg.pages...)
				prev.nrAccesses += reg.nrAccesses
				prev.sampleSize += reg.sampleSize
				continue
			}
		}
		merged = append(merged, reg)
	}
	t.regions = merged

	// Split pass.
	var out []damonRegion
	room := damonMaxRegions - len(t.regions)
	for _, reg := range t.regions {
		homogeneous := reg.nrAccesses == 0 || reg.nrAccesses == reg.sampleSize
		if homogeneous || len(reg.pages) < 2 || room <= 0 {
			out = append(out, reg)
			continue
		}
		// Random split point in [1, len): both halves keep the parent's
		// density until their own samples next interval disambiguate.
		cut := 1 + int(t.r.Uint64n(uint64(len(reg.pages)-1)))
		left := damonRegion{
			pages:      append([]addr.Virt(nil), reg.pages[:cut]...),
			nrAccesses: reg.nrAccesses,
			sampleSize: reg.sampleSize,
		}
		right := damonRegion{
			pages:      append([]addr.Virt(nil), reg.pages[cut:]...),
			nrAccesses: reg.nrAccesses,
			sampleSize: reg.sampleSize,
		}
		out = append(out, left, right)
		room--
	}
	t.regions = out
}

// rateOf smears a region's sampled density over each of its pages.
func (t *DamonTracker) rateOf(reg *damonRegion) float64 {
	if reg.sampleSize == 0 {
		return 0
	}
	assumed := 2 * t.group.Params().TargetSlowAccessRate()
	return assumed * float64(reg.nrAccesses) / float64(reg.sampleSize)
}

// MeasureCold implements Tracker.
func (t *DamonTracker) MeasureCold(cold []addr.Virt, intervalSec float64) []Measured {
	t.ensureScanned()
	rate := make(map[addr.Virt]float64)
	for i := range t.regions {
		r := t.rateOf(&t.regions[i])
		for _, p := range t.regions[i].pages {
			rate[p] = r
		}
	}
	out := make([]Measured, 0, len(cold))
	for _, base := range cold {
		out = append(out, Measured{Base: base, Rate: rate[base]})
	}
	return out
}

// Estimates implements Tracker: one estimate per in-scope top-tier 2MB
// page, in ascending base order. Regions are sorted by first page, but
// after page churn a new region can start inside an older region's gap,
// so the pages are sorted here.
func (t *DamonTracker) Estimates(intervalSec float64) ([]Estimate, error) {
	t.ensureScanned()
	var ests []Estimate
	for i := range t.regions {
		r := t.rateOf(&t.regions[i])
		for _, p := range t.regions[i].pages {
			if t.view.IsCold(p) {
				continue
			}
			ests = append(ests, Estimate{Base: p, Rate: r})
		}
	}
	sort.Slice(ests, func(i, j int) bool { return ests[i].Base < ests[j].Base })
	return ests, nil
}
