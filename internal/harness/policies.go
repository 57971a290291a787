package harness

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/kstaled"
	"thermostat/internal/sim"
)

// scanOnly is a measurement-only policy: it runs a kstaled Accessed-bit
// scanner every interval and never moves a page. Figure 1's idle fractions
// come from its scanner.
type scanOnly struct {
	interval int64
	scanner  *kstaled.Scanner
}

func (p *scanOnly) Name() string      { return "kstaled-scan" }
func (p *scanOnly) IntervalNs() int64 { return p.interval }

func (p *scanOnly) Attach(m *sim.Machine) error {
	if p.interval <= 0 {
		return fmt.Errorf("harness: scanOnly needs an interval")
	}
	p.scanner = kstaled.New(m.PageTable(), m.TLB(), m.VPID(), 0)
	return nil
}

func (p *scanOnly) Tick(m *sim.Machine, now int64) error {
	res := p.scanner.Scan()
	m.ChargeDaemon(res.CostNs)
	return nil
}

func (p *scanOnly) Footprint(m *sim.Machine) sim.Footprint {
	return sim.AllHotFootprint(m.PageTable())
}

// splitScan is the Figure 2 instrument: scanOnly over a table whose every
// huge page was split at attach time, so the scanner tracks per-child hot
// streaks. No pages move.
type splitScan struct {
	scanOnly
	bases []addr.Virt
}

func (p *splitScan) Name() string { return "split-scan" }

func (p *splitScan) Attach(m *sim.Machine) error {
	pt := m.PageTable()
	pt.ScanHuge(func(base addr.Virt) { p.bases = append(p.bases, base) })
	for _, base := range p.bases {
		if err := pt.Split(base); err != nil {
			return err
		}
		m.TLB().Invalidate(base, m.VPID())
	}
	return p.scanOnly.Attach(m)
}
