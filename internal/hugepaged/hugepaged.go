// Package hugepaged models the kernel's khugepaged daemon: a background
// scanner that finds 2MB-aligned spans fully mapped by 4KB pages and
// collapses them into transparent huge pages by copy — allocate a fresh 2MB
// frame in the same tier, move the 512 children onto it, and install a
// single PMD mapping.
//
// Thermostat assumes THP is active (its benefits are the paper's Table 1);
// khugepaged is the substrate mechanism that repairs huge mappings when an
// application starts life with 4KB pages or after mappings fragment. The
// daemon skips pages Thermostat has split for sampling (SplitSampled) and
// anything poisoned — exactly as the real khugepaged skips pages with
// special PTE bits.
package hugepaged

import (
	"errors"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
)

// Modeled costs: a collapse copies 2MB and rewrites one PMD.
const (
	collapseCopyCostNs = 250_000 // ~2MB at ~8GB/s
	scanCostPerLeafNs  = 50
)

// Daemon is the collapse scanner. It implements sim.Policy (footprint
// reporting delegates to whole-table accounting) and is typically stacked
// under a placement policy with sim.Stack.
type Daemon struct {
	// Interval is the scan period (khugepaged's scan_sleep_millisecs).
	Interval int64
	// MaxCollapsesPerScan bounds work per wakeup (0 = 8, khugepaged's
	// pages_to_scan spirit).
	MaxCollapsesPerScan int

	m         *sim.Machine
	collapses stats.Counter
	skipped   stats.Counter
}

// Name implements sim.Policy.
func (d *Daemon) Name() string { return "khugepaged" }

// IntervalNs implements sim.Policy.
func (d *Daemon) IntervalNs() int64 { return d.Interval }

// Attach implements sim.Policy.
func (d *Daemon) Attach(m *sim.Machine) error {
	if d.Interval <= 0 {
		return errors.New("hugepaged: non-positive interval")
	}
	if d.MaxCollapsesPerScan <= 0 {
		d.MaxCollapsesPerScan = 8
	}
	d.m = m
	return nil
}

// Collapses returns the number of successful collapses.
func (d *Daemon) Collapses() uint64 { return d.collapses.Value() }

// Skipped returns candidates rejected (poisoned, split-sampled, mixed
// tiers, or allocation failure).
func (d *Daemon) Skipped() uint64 { return d.skipped.Value() }

// candidate describes one 2MB-aligned span of 4KB mappings.
type candidate struct {
	children int
	poisoned bool
	sampled  bool
	tier     mem.TierID
	mixed    bool
}

// Tick implements sim.Policy: scan for collapse candidates and collapse up
// to the per-scan budget.
func (d *Daemon) Tick(m *sim.Machine, now int64) error {
	pt := m.PageTable()
	cands := map[addr.Virt]*candidate{}
	leaves := 0
	pt.Scan(func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		leaves++
		if lvl != pagetable.Level4K {
			return
		}
		hb := base.Base2M()
		c := cands[hb]
		if c == nil {
			c = &candidate{tier: mem.TierOf(e.Frame())}
			cands[hb] = c
		}
		c.children++
		if e.Has(pagetable.Poisoned) {
			c.poisoned = true
		}
		if e.Has(pagetable.SplitSampled) {
			c.sampled = true
		}
		if mem.TierOf(e.Frame()) != c.tier {
			c.mixed = true
		}
	})
	m.ChargeDaemon(int64(leaves) * scanCostPerLeafNs)

	done := 0
	for hb, c := range cands {
		if done >= d.MaxCollapsesPerScan {
			break
		}
		if c.children != addr.PagesPerHuge || c.poisoned || c.sampled || c.mixed {
			d.skipped.Inc()
			continue
		}
		if err := d.collapse(hb, c.tier); err != nil {
			// Allocation pressure: skip, retry next scan.
			d.skipped.Inc()
			continue
		}
		done++
	}
	return nil
}

// collapse copy-collapses the span at hb into a huge mapping.
func (d *Daemon) collapse(hb addr.Virt, tier mem.TierID) error {
	pt := d.m.PageTable()
	t := d.m.Memory().Tier(tier)
	newFrame, err := t.Alloc2M()
	if err != nil {
		return err
	}
	// Move children onto the fresh contiguous frame, remembering the old
	// frames to free.
	old := make([]addr.Phys, 0, addr.PagesPerHuge)
	for i := 0; i < addr.PagesPerHuge; i++ {
		cv := hb + addr.Virt(uint64(i)*addr.PageSize4K)
		prev, err := pt.Remap(cv, newFrame+addr.Phys(uint64(i)*addr.PageSize4K))
		if err != nil {
			// Roll back the frames moved so far (restore mappings).
			for j := 0; j < i; j++ {
				rv := hb + addr.Virt(uint64(j)*addr.PageSize4K)
				if _, rerr := pt.Remap(rv, old[j]); rerr != nil {
					panic("hugepaged: rollback failed: " + rerr.Error())
				}
			}
			t.Free2M(newFrame)
			return err
		}
		old = append(old, prev)
		d.m.TLB().Invalidate(cv, d.m.VPID())
	}
	if err := pt.Collapse(hb); err != nil {
		// Should be impossible after contiguous remap; fail loudly.
		panic("hugepaged: collapse after remap failed: " + err.Error())
	}
	for _, p := range old {
		t.Free4K(p)
	}
	d.m.ChargeDaemon(collapseCopyCostNs)
	d.collapses.Inc()
	if rec := d.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{
			Kind: telemetry.KindHugePageCollapse, TimeNs: d.m.Clock(), Page: hb,
		})
	}
	return nil
}

// Footprint implements sim.Policy.
func (d *Daemon) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, nil)
}
