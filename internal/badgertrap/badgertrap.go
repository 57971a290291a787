// Package badgertrap reimplements the BadgerTrap mechanism (Gandhi et al.,
// CAN 2014) the paper uses for page-access counting and slow-memory
// emulation: a kernel extension that intercepts TLB misses by poisoning PTEs
// with a reserved bit.
//
// When a page is sampled for access counting, its PTE is poisoned (reserved
// bit set) and its TLB entry flushed. The next access misses the TLB, the
// hardware walk trips over the poisoned PTE and raises a protection fault,
// and the fault handler: unpoisons the PTE, installs a (transient)
// translation in the TLB, re-poisons the PTE, and counts the event. The TLB
// miss count is Thermostat's proxy for the page's memory access rate.
//
// The same protocol doubles as the paper's slow-memory emulator: the ~1us
// fault latency approximates a slow-memory access, charged on each TLB miss
// to a poisoned page.
package badgertrap

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/fault"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
	"thermostat/internal/tlb"
)

// DefaultFaultLatencyNs is the paper's measured BadgerTrap fault cost
// (≈ 1us in their guest kernel).
const DefaultFaultLatencyNs = 1000

// Trap is one BadgerTrap instance bound to an address space (page table) and
// its TLB — the paper installs it inside the guest.
type Trap struct {
	pt  *pagetable.Table
	tl  *tlb.TLB
	lat int64

	// counts records poison faults per leaf page (keyed by the leaf's
	// virtual base address) since the last reset; the engine reads these
	// as per-page access estimates.
	counts map[addr.Virt]uint64

	faults stats.Counter
}

// New builds a trap over the given page table and TLB. faultLatencyNs <= 0
// selects DefaultFaultLatencyNs.
func New(pt *pagetable.Table, tl *tlb.TLB, faultLatencyNs int64) *Trap {
	if faultLatencyNs <= 0 {
		faultLatencyNs = DefaultFaultLatencyNs
	}
	return &Trap{pt: pt, tl: tl, lat: faultLatencyNs, counts: make(map[addr.Virt]uint64)}
}

// Poison arms interception on the leaf page containing v: sets the entry's
// reserved bit and flushes the translation so the next access faults. Works
// at either grain — per-4KB-PTE for sampled split pages, per-PMD for whole
// cold huge pages under §3.5 monitoring. Fails if v is unmapped.
func (t *Trap) Poison(v addr.Virt, vpid tlb.VPID) error {
	e, _, ok := t.pt.EntryRef(v)
	if !ok {
		return fmt.Errorf("badgertrap: poison of unmapped %s", v)
	}
	e.Set(pagetable.Poisoned)
	t.tl.Invalidate(v, vpid)
	return nil
}

// Unpoison disarms interception on the 4KB page containing v. The recorded
// count survives.
func (t *Trap) Unpoison(v addr.Virt) error {
	if _, ok := t.pt.ClearFlags(v, pagetable.Poisoned); !ok {
		return fmt.Errorf("badgertrap: unpoison of unmapped %s", v)
	}
	return nil
}

// IsPoisoned reports whether the page containing v is currently armed.
func (t *Trap) IsPoisoned(v addr.Virt) bool {
	e, _, ok := t.pt.Lookup(v)
	return ok && e.Flags.Has(pagetable.Poisoned)
}

// Handle services a poison fault: unpoison, install a transient TLB
// translation, re-poison, count. It returns the handling latency in
// nanoseconds; the machine calls it on every poison fault its walk raises.
//
// Because the PTE is re-poisoned but the TLB now holds a valid translation,
// subsequent accesses to the same page hit the TLB and do not fault until
// the entry is evicted — the paper's documented under-estimation. Conversely
// the fault fires even when the target line is cache-resident — the
// documented over-estimation.
func (t *Trap) Handle(f fault.Fault) (int64, error) {
	e, lvl, ok := t.pt.EntryRef(f.Virt)
	if !ok || !e.Has(pagetable.Poisoned) {
		return 0, fmt.Errorf("badgertrap: spurious poison fault at %s", f.Virt)
	}
	// The handler unpoisons so the access can complete, marks the
	// architectural bits the walk would have set, installs the translation,
	// and re-poisons. The PTE ends with Poisoned still set plus the new
	// Accessed/Dirty bits, so the unpoison/re-poison pair reduces to a single
	// flag OR on the entry.
	mark := pagetable.Accessed
	if f.Write {
		mark |= pagetable.Dirty
	}
	e.Set(mark)
	t.tl.Insert(f.Virt, lvl, e.Frame(), f.VPID)

	t.counts[leafBase(f.Virt, lvl)]++
	t.faults.Inc()
	return t.lat, nil
}

func leafBase(v addr.Virt, lvl pagetable.Level) addr.Virt {
	if lvl == pagetable.Level2M {
		return v.Base2M()
	}
	return v.Base4K()
}

// Count returns the poison-fault count recorded for the leaf page containing
// v since the last reset. For an address whose mapping has since vanished,
// the 4KB-base count is consulted, then the 2MB base.
func (t *Trap) Count(v addr.Virt) uint64 {
	if _, lvl, ok := t.pt.Lookup(v); ok {
		return t.counts[leafBase(v, lvl)]
	}
	if n, ok := t.counts[v.Base4K()]; ok {
		return n
	}
	return t.counts[v.Base2M()]
}

// CountLeaf returns the poison-fault count recorded for the leaf page whose
// base address is base. Unlike Count it does not consult the page table, so
// base must already be a leaf base address — which is what the engine holds
// for every page it tracks (bases come from Scan or from the split layout).
// For a currently-mapped leaf base, CountLeaf(base) == Count(base).
func (t *Trap) CountLeaf(base addr.Virt) uint64 { return t.counts[base] }

// TotalFaults returns the lifetime number of poison faults handled.
func (t *Trap) TotalFaults() uint64 { return t.faults.Value() }

// ForgetRange drops the recorded counts for every leaf page in r. Called
// when an address range is unmapped for good (tenant departure), so the
// count map does not accumulate entries for dead mappings.
func (t *Trap) ForgetRange(r addr.Range) {
	for k := range t.counts {
		if r.Contains(k) {
			delete(t.counts, k)
		}
	}
}

// StateBytes estimates the trap's footprint-dependent state: the per-page
// fault-count map. Only faulted (i.e. sampled or demoted) pages have
// entries, so this scales with monitoring activity, not with footprint.
func (t *Trap) StateBytes() uint64 {
	return uint64(len(t.counts)) * 24
}
