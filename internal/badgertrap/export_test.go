package badgertrap

import "thermostat/internal/addr"

// CountsSnapshot returns a copy of the per-page fault counts, keyed by leaf
// virtual base address.
func (t *Trap) CountsSnapshot() map[addr.Virt]uint64 {
	out := make(map[addr.Virt]uint64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// ResetCounts clears the per-page counts (start of a new sampling interval).
func (t *Trap) ResetCounts() {
	t.counts = make(map[addr.Virt]uint64)
}
