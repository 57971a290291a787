package tlb

import (
	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
)

// The map-backed two-table TLB this package shipped before the flat index,
// kept as the differential oracle for TestTLBMatchesMapLRU and
// FuzzTLBVsMapLRU: two independent exact-LRU maps, every operation applied
// to both. Only the type names changed (refKey, refEntry, refLRU, refTLB).

// refKey identifies a cached translation.
type refKey struct {
	vpn  uint64
	lvl  pagetable.Level
	vpid VPID
}

// refEntry is a cached translation.
type refEntry struct {
	key   refKey
	frame addr.Phys

	prev, next *refEntry // LRU list, most-recent at head
}

// refLRU is a fixed-capacity LRU map of translations. Evicted and removed
// entries park on a freelist (chained through next) so a full TLB churns
// translations without allocating.
type refLRU struct {
	cap   int
	items map[refKey]*refEntry
	head  *refEntry
	tail  *refEntry
	free  *refEntry
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, items: make(map[refKey]*refEntry, capacity)}
}

func (l *refLRU) get(k refKey) (*refEntry, bool) {
	e, ok := l.items[k]
	if ok {
		l.moveToFront(e)
	}
	return e, ok
}

func (l *refLRU) put(k refKey, frame addr.Phys) {
	if e, ok := l.items[k]; ok {
		e.frame = frame
		l.moveToFront(e)
		return
	}
	if len(l.items) >= l.cap {
		l.evict()
	}
	e := l.free
	if e != nil {
		l.free = e.next
		*e = refEntry{key: k, frame: frame}
	} else {
		e = &refEntry{key: k, frame: frame}
	}
	l.items[k] = e
	l.pushFront(e)
}

func (l *refLRU) remove(k refKey) bool {
	e, ok := l.items[k]
	if !ok {
		return false
	}
	l.unlink(e)
	delete(l.items, k)
	l.release(e)
	return true
}

func (l *refLRU) evict() {
	if l.tail == nil {
		return
	}
	victim := l.tail
	l.unlink(victim)
	delete(l.items, victim.key)
	l.release(victim)
}

func (l *refLRU) release(e *refEntry) {
	e.next = l.free
	l.free = e
}

func (l *refLRU) pushFront(e *refEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *refLRU) unlink(e *refEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *refLRU) moveToFront(e *refEntry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

func (l *refLRU) clear() {
	l.items = make(map[refKey]*refEntry, l.cap)
	l.head, l.tail = nil, nil
}

func (l *refLRU) removeIf(pred func(refKey) bool) {
	for k := range l.items {
		if pred(k) {
			l.remove(k)
		}
	}
}

// refTLB is the two-table hierarchy over refLRU.
type refTLB struct {
	l1, l2 *refLRU

	hitsL1, hitsL2, misses uint64
}

func newRefTLB(cfg Config) *refTLB {
	return &refTLB{l1: newRefLRU(cfg.L1Entries), l2: newRefLRU(cfg.L2Entries)}
}

func (t *refTLB) Lookup(v addr.Virt, vpid VPID) (Result, bool) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		k := refKeyFor(v, lvl, vpid)
		if e, ok := t.l1.get(k); ok {
			t.hitsL1++
			t.l2.get(k) // keep L2 recency in sync (inclusive hierarchy)
			return Result{Frame: e.frame, Level: lvl, Hit: HitL1}, true
		}
	}
	for _, lvl := range [2]pagetable.Level{pagetable.Level2M, pagetable.Level4K} {
		k := refKeyFor(v, lvl, vpid)
		if e, ok := t.l2.get(k); ok {
			t.hitsL2++
			t.l1.put(k, e.frame)
			return Result{Frame: e.frame, Level: lvl, Hit: HitL2}, true
		}
	}
	t.misses++
	return Result{}, false
}

func refKeyFor(v addr.Virt, lvl pagetable.Level, vpid VPID) refKey {
	if lvl == pagetable.Level2M {
		return refKey{vpn: v.PageNum2M(), lvl: lvl, vpid: vpid}
	}
	return refKey{vpn: v.PageNum4K(), lvl: lvl, vpid: vpid}
}

func (t *refTLB) Insert(v addr.Virt, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	k := refKeyFor(v, lvl, vpid)
	t.l1.put(k, frame)
	t.l2.put(k, frame)
}

func (t *refTLB) Invalidate(v addr.Virt, vpid VPID) {
	for _, lvl := range [2]pagetable.Level{pagetable.Level4K, pagetable.Level2M} {
		k := refKeyFor(v, lvl, vpid)
		t.l1.remove(k)
		t.l2.remove(k)
	}
}

func (t *refTLB) InvalidateVPID(vpid VPID) {
	pred := func(k refKey) bool { return k.vpid == vpid }
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

func (t *refTLB) InvalidateRange(r addr.Range, vpid VPID) {
	pred := func(k refKey) bool {
		if k.vpid != vpid {
			return false
		}
		var v addr.Virt
		if k.lvl == pagetable.Level2M {
			v = addr.Virt(k.vpn << addr.PageShift2M)
		} else {
			v = addr.Virt(k.vpn << addr.PageShift4K)
		}
		return r.Contains(v)
	}
	t.l1.removeIf(pred)
	t.l2.removeIf(pred)
}

func (t *refTLB) Flush() {
	t.l1.clear()
	t.l2.clear()
}

func (t *refTLB) Stats() Stats {
	return Stats{HitsL1: t.hitsL1, HitsL2: t.hitsL2, Misses: t.misses}
}

func (t *refTLB) Size() (l1, l2 int) { return len(t.l1.items), len(t.l2.items) }
