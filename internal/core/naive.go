package core

import (
	"errors"
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/kstaled"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
)

// IdleDemote is the naive Accessed-bit baseline Thermostat is motivated
// against (§2.1, Figure 1): a kstaled-style scanner demotes any huge page
// idle for IdleScans consecutive scan intervals and promotes a cold page the
// moment a scan sees its Accessed bit set.
//
// Because a single Accessed bit carries no rate information, this policy
// cannot bound the slowdown it causes — the failure mode the Redis
// experiment exposes (placing 10s-idle pages costs >10%).
type IdleDemote struct {
	// Interval is the scan period (e.g. 10s/IdleScans for a 10s idle
	// window).
	Interval int64
	// IdleScans is how many consecutive idle scans demote a page.
	IdleScans int
	// NoPromote disables the touch-triggered promotion, leaving placement
	// static — the configuration behind Figure 1's caption (placing the
	// detected-idle pages costs >10% for Redis because the idle set was
	// never safe, and nothing brings the pages back).
	NoPromote bool

	m       *sim.Machine
	scanner *kstaled.Scanner
	cold    map[addr.Virt]bool

	demotions  stats.Counter
	promotions stats.Counter
}

// Name implements sim.Policy.
func (p *IdleDemote) Name() string { return "idle-demote" }

// IntervalNs implements sim.Policy.
func (p *IdleDemote) IntervalNs() int64 { return p.Interval }

// Attach implements sim.Policy.
func (p *IdleDemote) Attach(m *sim.Machine) error {
	if p.Interval <= 0 {
		return fmt.Errorf("core: IdleDemote needs a positive interval")
	}
	if p.IdleScans <= 0 {
		return fmt.Errorf("core: IdleDemote needs a positive idle-scan count")
	}
	p.m = m
	p.scanner = kstaled.New(m.PageTable(), m.TLB(), m.VPID(), 0)
	p.cold = make(map[addr.Virt]bool)
	return nil
}

// Demotions returns the lifetime demotion count.
func (p *IdleDemote) Demotions() uint64 { return p.demotions.Value() }

// Promotions returns the lifetime promotion count.
func (p *IdleDemote) Promotions() uint64 { return p.promotions.Value() }

// Tick implements sim.Policy: scan Accessed bits, demote pages idle long
// enough, promote cold pages that were touched.
func (p *IdleDemote) Tick(m *sim.Machine, now int64) error {
	res := p.scanner.Scan()
	m.ChargeDaemon(res.CostNs)

	var toDemote, toPromote []addr.Virt
	m.PageTable().ScanHuge(func(base addr.Virt) {
		st := p.scanner.State(base)
		if st == nil {
			return
		}
		if p.cold[base] {
			// Any access observed on a cold page promotes it: the bit
			// was set when scanned, so HotStreak is non-zero.
			if !p.NoPromote && st.HotStreak > 0 {
				toPromote = append(toPromote, base)
			}
			return
		}
		if st.IdleScans >= p.IdleScans {
			toDemote = append(toDemote, base)
		}
	})
	for _, base := range toPromote {
		if _, err := m.Promote(base); err != nil {
			// Graceful degradation: a full fast tier or an injected fault
			// leaves the page cold until a later scan retries it.
			if errors.Is(err, mem.ErrOutOfMemory) || chaos.IsInjected(err) {
				continue
			}
			return err
		}
		delete(p.cold, base)
		p.promotions.Inc()
	}
	for _, base := range toDemote {
		if _, err := m.Demote(base); err != nil {
			if errors.Is(err, mem.ErrOutOfMemory) {
				// Destination full: later candidates need the same 2MB
				// frame, so stop this pass (pre-chaos behavior, pinned by
				// the goldens).
				break
			}
			if chaos.IsInjected(err) {
				continue
			}
			return err
		}
		p.cold[base] = true
		p.demotions.Inc()
	}
	return nil
}

// Footprint implements sim.Policy.
func (p *IdleDemote) Footprint(m *sim.Machine) sim.Footprint {
	return sim.ScanFootprint(m, nil)
}
