package tlb

import "thermostat/internal/stats"

// InvalidateVPID drops all translations tagged with vpid.
func (t *TLB) InvalidateVPID(vpid VPID) {
	if t.set != nil {
		t.dropSet(func(w *way) bool { return VPID(w.tag) == vpid })
		return
	}
	for s := t.head; s >= 0; {
		e := &t.entries[s]
		next := e.next
		if e.vpid == vpid {
			t.remove(s)
		}
		s = next
	}
}

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() {
	t.hitsL1, t.hitsL2, t.misses = stats.Counter{}, stats.Counter{}, stats.Counter{}
}

// Size returns the number of live entries at each level.
func (t *TLB) Size() (l1, l2 int) { return t.n1, t.n2 }
