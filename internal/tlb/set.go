package tlb

import (
	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
)

// setMax is the largest L2Entries New holds as one recency-ordered set; a
// larger TLB gets the keyed index. At 8 entries a miss plus its fill costs
// the set a third less than the index; at 1024 a scan costs microseconds
// (DESIGN.md "Flat TLB"). 8 is the testbed STLB's associativity.
const setMax = 8

// way is one entry of the set form: a cached translation and the tag
// (tagOf) beside its page number.
type way struct {
	vpn   uint64
	frame addr.Phys
	tag   uint32
}

func (w *way) lvl() pagetable.Level { return pagetable.Level(w.tag >> 16) }

// lookupSet is Lookup on the set form: one scan for both keys, each of
// which is at most once in the set. At the first match the lookup is
// settled unless that is the 4 KB key; then a 2 MB match further on wins
// unless the 4 KB one sits in the L1 prefix and the 2 MB one past it.
func (t *TLB) lookupSet(v addr.Virt, vpid VPID) (lookupResult, bool) {
	k2, t2 := v.PageNum2M(), tagOf(pagetable.Level2M, vpid)
	k4, t4 := v.PageNum4K(), tagOf(pagetable.Level4K, vpid)
	live := t.set[:t.n2]
	i := 0
	for ; i < len(live); i++ {
		if w := &live[i]; w.vpn == k2 && w.tag == t2 || w.vpn == k4 && w.tag == t4 {
			break
		}
	}
	if i == len(live) {
		t.misses.Inc()
		return lookupResult{}, false
	}
	if live[i].tag == t4 {
		for j := i + 1; j < len(live); j++ {
			if live[j].vpn == k2 && live[j].tag == t2 {
				if i >= t.n1 || j < t.n1 {
					i = j
				}
				break
			}
		}
	}
	at := hitL1
	if i < t.n1 {
		t.hitsL1.Inc()
	} else {
		t.hitsL2.Inc()
		at = hitL2
	}
	t.toFront(i)
	w := &t.set[0]
	return lookupResult{Frame: w.frame, Level: w.lvl(), Hit: at}, true
}

// toFront makes position i the most recent entry of both levels. An entry
// from past the L1 prefix joins it, and a full L1's least recent entry,
// now at position n1, leaves it.
func (t *TLB) toFront(i int) {
	if i > 0 {
		w := t.set[i]
		copy(t.set[1:i+1], t.set[:i])
		t.set[0] = w
	}
	if i >= t.n1 {
		t.n1 = min(t.n1+1, t.cap1)
	}
}

// insertSet is Insert on the set form.
func (t *TLB) insertSet(w way) {
	for i := 0; i < t.n2; i++ {
		if t.set[i].vpn == w.vpn && t.set[i].tag == w.tag {
			t.set[i].frame = w.frame
			t.toFront(i)
			return
		}
	}
	t.addSet(w)
}

// addSet shifts an absent key in at position 0. A full set drops position
// n2-1 to make room; that is an L1 entry only when n1 == n2 ==
// L1Entries == L2Entries, and then the capped n1 drops it from L1 too.
func (t *TLB) addSet(w way) {
	n := min(t.n2, len(t.set)-1)
	copy(t.set[1:n+1], t.set[:n])
	t.set[0] = w
	t.n2 = n + 1
	t.n1 = min(t.n1+1, t.cap1)
}

// dropSet deletes every entry drop selects, closing the gaps in place; a
// deletion inside the L1 prefix shortens it.
func (t *TLB) dropSet(drop func(w *way) bool) {
	j, n1 := 0, t.n1
	for i := 0; i < t.n2; i++ {
		if drop(&t.set[i]) {
			if i < t.n1 {
				n1--
			}
			continue
		}
		t.set[j] = t.set[i]
		j++
	}
	t.n1, t.n2 = n1, j
}
