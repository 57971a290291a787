// Package counter implements the page-access-counting mechanisms the paper
// discusses: the deployed software-only BadgerTrap poisoning (§3.3) and the
// two proposed hardware extensions of §6.1 — a "count miss" (CM) PTE bit
// that faults on LLC misses to tagged pages, and a PEBS-style sampler that
// records page addresses of sampled LLC misses.
//
// All three expose the same Backend interface, so their accuracy and
// overhead can be compared head-to-head (the §6.1 ablation):
//
//   - BadgerTrap counts TLB misses as a proxy for memory accesses; each
//     event costs ~1us and over/under-estimates as documented in the paper.
//   - CMBit counts true LLC misses; the fault can be overlapped with the
//     memory access, so the modeled overhead is small.
//   - PEBS samples every Nth LLC miss system-wide at negligible per-event
//     cost but bounded resolution: counts are estimates scaled by the
//     sampling period, and low-rate pages may be missed entirely.
package counter

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/sim"
)

// Backend counts accesses to armed leaf pages.
type Backend interface {
	// Arm starts counting the leaf page with the given base address.
	Arm(base addr.Virt) error
	// Count returns the events recorded for the page, scaled to estimated
	// true accesses.
	Count(base addr.Virt) uint64
}

// BadgerTrap adapts the machine's poison-fault trap to Backend.
type BadgerTrap struct {
	m *sim.Machine
}

// NewBadgerTrap wraps the machine's trap.
func NewBadgerTrap(m *sim.Machine) *BadgerTrap { return &BadgerTrap{m: m} }

// Arm implements Backend.
func (b *BadgerTrap) Arm(base addr.Virt) error {
	return b.m.Trap().Poison(base, b.m.VPID())
}

// Count implements Backend.
func (b *BadgerTrap) Count(base addr.Virt) uint64 {
	return b.m.Trap().Count(base)
}

// CMBitOverheadNs is the modeled per-event cost of a CM-bit fault: §6.1.1
// notes the memory access can proceed in parallel with the fault handler,
// hiding most of its latency.
const CMBitOverheadNs = 100

// CMBit models the §6.1.1 "count miss" PTE bit: every LLC miss to an armed
// page raises a lightweight fault whose handler increments a counter.
// Counting is exact (true memory accesses, not TLB misses).
type CMBit struct {
	m      *sim.Machine
	armed  map[addr.Virt]bool // leaf base -> armed
	counts map[addr.Virt]uint64
}

// NewCMBit installs the CM-bit model on the machine's miss path.
func NewCMBit(m *sim.Machine) *CMBit {
	c := &CMBit{
		m:      m,
		armed:  make(map[addr.Virt]bool),
		counts: make(map[addr.Virt]uint64),
	}
	m.SetMissHook(c.onMiss, CMBitOverheadNs)
	return c
}

func (c *CMBit) leafBase(v addr.Virt) (addr.Virt, bool) {
	// An armed page may be tagged at either grain; check 4K then 2M.
	if c.armed[v.Base4K()] {
		return v.Base4K(), true
	}
	if c.armed[v.Base2M()] {
		return v.Base2M(), true
	}
	return 0, false
}

func (c *CMBit) onMiss(v addr.Virt, write bool) int64 {
	base, ok := c.leafBase(v)
	if !ok {
		return 0
	}
	c.counts[base]++
	return CMBitOverheadNs
}

// Arm implements Backend.
func (c *CMBit) Arm(base addr.Virt) error {
	if _, _, ok := c.m.PageTable().Lookup(base); !ok {
		return fmt.Errorf("counter: CM-bit arm of unmapped %s", base)
	}
	c.armed[base] = true
	return nil
}

// Count implements Backend.
func (c *CMBit) Count(base addr.Virt) uint64 { return c.counts[base] }

// PEBS parameters: the kernel's 1000Hz cap on PEBS interrupts translates,
// at typical miss rates, to sampling roughly every 1000th miss; each record
// write is cheap, and the buffer-drain interrupt is amortized.
const (
	PEBSPeriod              = 1000
	PEBSRecordOverheadNs    = 20
	PEBSInterruptOverheadNs = 4000
	PEBSBufferRecords       = 64
)

// PEBS models §6.1.2: the CPU samples every PEBSPeriod-th LLC miss
// system-wide and stores the page address in a buffer; a full buffer raises
// an interrupt. Per-page counts are estimated as samples · PEBSPeriod, so
// pages whose true rate is below PEBSPeriod per interval are often missed —
// the resolution limit the paper notes makes PEBS unsuitable at 30K
// events/s.
type PEBS struct {
	m       *sim.Machine
	armed   map[addr.Virt]bool
	samples map[addr.Virt]uint64
	misses  uint64
	inBuf   int
}

// NewPEBS installs the PEBS model on the machine's miss path. One event
// costs at most a record write plus the buffer-drain interrupt.
func NewPEBS(m *sim.Machine) *PEBS {
	p := &PEBS{
		m:       m,
		armed:   make(map[addr.Virt]bool),
		samples: make(map[addr.Virt]uint64),
	}
	m.SetMissHook(p.onMiss, PEBSRecordOverheadNs+PEBSInterruptOverheadNs)
	return p
}

func (p *PEBS) onMiss(v addr.Virt, write bool) int64 {
	p.misses++
	if p.misses%PEBSPeriod != 0 {
		return 0
	}
	// Sampled: record the page (whether armed or not — PEBS is
	// system-wide; attribution happens at read-out).
	var lat int64 = PEBSRecordOverheadNs
	if p.armed[v.Base4K()] {
		p.samples[v.Base4K()]++
	} else if p.armed[v.Base2M()] {
		p.samples[v.Base2M()]++
	}
	p.inBuf++
	if p.inBuf >= PEBSBufferRecords {
		p.inBuf = 0
		lat += PEBSInterruptOverheadNs
	}
	return lat
}

// Arm implements Backend.
func (p *PEBS) Arm(base addr.Virt) error {
	if _, _, ok := p.m.PageTable().Lookup(base); !ok {
		return fmt.Errorf("counter: PEBS arm of unmapped %s", base)
	}
	p.armed[base] = true
	return nil
}

// Count implements Backend: samples scaled by the sampling period.
func (p *PEBS) Count(base addr.Virt) uint64 {
	return p.samples[base] * PEBSPeriod
}
