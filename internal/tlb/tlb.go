// Package tlb models a two-level translation lookaside buffer with VPID
// (virtual processor ID) tagging, matching the evaluation platform's 64-entry
// per-core L1 and shared 1024-entry L2. Entries exist at 4KB and 2MB grains;
// a 2MB entry gives huge pages their larger reach, which is the TLB half of
// the paper's Table 1 huge-page advantage.
//
// A TLB of at most 8 L2 entries (the tiny-scale runs' 2/8) is held as one
// recency-ordered set that lookups scan; a larger one (2/16, the testbed's
// 64/1024) as a keyed index over an LRU list. Both are exact LRU with the
// same results.
//
// Poisoned translations are never cached: BadgerTrap relies on every access
// to a poisoned page missing the TLB so the poison fault fires (the fault
// handler installs only a transient translation).
package tlb

import (
	"fmt"
	"math/bits"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
)

// VPID tags entries by virtual processor, as KVM does for its guests. VPID 0
// is reserved for the host (and is what a vmexit switches to).
type VPID uint16

// HostVPID is the host's VPID.
const HostVPID VPID = 0

// nilSlot is the null link: end of a list, empty index cell.
const nilSlot int32 = -1

// entry is one slot of the flat TLB: a cached translation plus its links.
// prev/next thread the LRU list (most-recent at head); a free slot chains
// through next alone.
type entry struct {
	vpn   uint64
	frame addr.Phys
	lvl   pagetable.Level
	prev  int32
	next  int32
	vpid  VPID
	inL1  bool // within the L1 prefix of the list
}

// cell is one index cell: a slot number and the key of the entry in it, so
// a probe compares and rehashes keys without loading entries. tag packs the
// grain and the VPID (tagOf); slot is nilSlot in an empty cell. 16 bytes.
type cell struct {
	vpn  uint64
	tag  uint32
	slot int32
}

// tagOf is the half of a key beside the page number: grain above VPID.
func tagOf(lvl pagetable.Level, vpid VPID) uint32 {
	return uint32(lvl)<<16 | uint32(vpid)
}

// Config sizes the TLB hierarchy. The hierarchy is inclusive (L1 ⊆ L2), so
// L2Entries must be at least L1Entries once defaults are applied.
type Config struct {
	// L1Entries is the per-level-1 capacity (default 64).
	L1Entries int
	// L2Entries is the shared second-level capacity (default 1024).
	L2Entries int
}

// DefaultConfig matches the paper's Xeon E5-2699 v3 testbed.
func DefaultConfig() Config { return Config{L1Entries: 64, L2Entries: 1024} }

// Normalize applies the defaults for zero fields and rejects a hierarchy
// that cannot be inclusive.
func (c Config) Normalize() (Config, error) {
	if c.L1Entries <= 0 {
		c.L1Entries = 64
	}
	if c.L2Entries <= 0 {
		c.L2Entries = 1024
	}
	if c.L2Entries < c.L1Entries {
		return c, fmt.Errorf("TLB L2Entries %d < L1Entries %d", c.L2Entries, c.L1Entries)
	}
	return c, nil
}

// HitLevel says where a lookup was satisfied.
type HitLevel int

// Lookup outcomes.
const (
	// Miss means neither level held the translation.
	Miss HitLevel = iota
	// HitL1 means the first level hit.
	HitL1
	// HitL2 means the second level hit (entry is promoted to L1).
	HitL2
)

// TLB is the two-level translation cache: both levels are fully associative
// exact LRU, held in one preallocated array. New picks the form from
// L2Entries alone: up to 8 entries, the set form, an array in recency order
// whose first n1 positions are L1 (set.go); above 8, the index form, slots
// threaded on an LRU list and found through a keyed index.
//
// Every operation applies one key to both levels, so L1 is not merely a
// subset of L2: its LRU order is a prefix of L2's. A hit or insert puts the
// entry at the front of both; an L1 eviction drops the last element of the
// prefix; an L2 eviction drops the list tail, which lies in the prefix only
// when the prefix is the whole list, and then capacities are equal and both
// levels evict it (hence L2Entries >= L1Entries); an invalidation deletes
// the entry from the list and, if it was there, from the prefix. So one
// order serves both levels: the set form's array is that order, its first
// n1 positions L1; the index form threads it as a list whose first n1
// entries, ending at l1tail and flagged inL1, are L1. DESIGN.md "Flat TLB"
// spells the argument out.
type TLB struct {
	// set holds the set form's entries, most recent first. It is nil in
	// the index form, and the set form leaves entries through free unused.
	set []way

	entries []entry
	// index is an open-addressed table of keyed cells over entries, linear
	// probing, at most half full.
	index []cell
	shift uint   // 64 - log2(len(index))
	mask  uint32 // len(index) - 1

	head, tail int32 // LRU list of live entries (L2)
	l1tail     int32 // last entry of the L1 prefix, nilSlot when n1 == 0
	free       int32 // freelist head
	n1, n2     int   // live entries in L1 and L2 (both forms)
	cap1       int

	hitsL1 stats.Counter
	hitsL2 stats.Counter
	misses stats.Counter
}

// New builds a TLB from cfg, applying defaults for zero fields. It panics
// if cfg asks for an L2 smaller than L1 (sim.New reports that as an error).
func New(cfg Config) *TLB {
	cfg, err := cfg.Normalize()
	if err != nil {
		panic("tlb: " + err.Error())
	}
	if cfg.L2Entries <= setMax {
		return &TLB{set: make([]way, cfg.L2Entries), cap1: cfg.L1Entries}
	}
	logCells := bits.Len(uint(2*cfg.L2Entries - 1)) // smallest power of two >= 2 x capacity
	t := &TLB{
		entries: make([]entry, cfg.L2Entries),
		index:   make([]cell, 1<<logCells),
		shift:   uint(64 - logCells),
		mask:    1<<logCells - 1,
		cap1:    cfg.L1Entries,
	}
	t.Flush()
	return t
}

// Result is a successful lookup.
type Result struct {
	Frame addr.Phys
	Level pagetable.Level
	Hit   HitLevel
}

// home is the index cell a key's probe sequence starts at: a multiply-shift
// hash of the page number mixed with the tag.
func (t *TLB) home(vpn uint64, tag uint32) uint32 {
	x := vpn ^ uint64(tag)<<46
	return uint32((x * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot caching (vpn, tag), or nilSlot.
func (t *TLB) find(vpn uint64, tag uint32) int32 {
	for i := t.home(vpn, tag); ; i = (i + 1) & t.mask {
		c := &t.index[i]
		if c.slot < 0 {
			return nilSlot
		}
		if c.vpn == vpn && c.tag == tag {
			return c.slot
		}
	}
}

// unindex removes slot s from the index, shifting later members of its
// probe run back over the hole so no tombstone is left.
func (t *TLB) unindex(s int32) {
	e := &t.entries[s]
	i := t.home(e.vpn, tagOf(e.lvl, e.vpid))
	for t.index[i].slot != s {
		i = (i + 1) & t.mask
	}
	for j := (i + 1) & t.mask; t.index[j].slot >= 0; j = (j + 1) & t.mask {
		c := &t.index[j]
		// A cell whose home lies in (i, j] would become unreachable from
		// its home if moved to i.
		if (j-t.home(c.vpn, c.tag))&t.mask < (j-i)&t.mask {
			continue
		}
		t.index[i] = *c
		i = j
	}
	t.index[i].slot = nilSlot
}

func (t *TLB) pushFront(s int32) {
	e := &t.entries[s]
	e.prev, e.next = nilSlot, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
}

func (t *TLB) unlink(s int32) {
	e := &t.entries[s]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

// touch makes s the most recent entry of both levels, bringing it into L1
// (and pushing L1's least recent out) if it was in L2 only.
func (t *TLB) touch(s int32) {
	e := &t.entries[s]
	if s != t.head {
		if s == t.l1tail {
			t.l1tail = e.prev
		}
		t.unlink(s)
		t.pushFront(s)
	}
	if e.inL1 {
		return
	}
	e.inL1 = true
	if t.n1 == 0 {
		t.l1tail = s
	}
	t.n1++
	if t.n1 > t.cap1 {
		v := &t.entries[t.l1tail]
		v.inL1 = false
		t.l1tail = v.prev
		t.n1--
	}
}

// remove drops slot s from both levels and frees it.
func (t *TLB) remove(s int32) {
	e := &t.entries[s]
	if e.inL1 {
		if s == t.l1tail {
			t.l1tail = e.prev
		}
		t.n1--
	}
	t.unlink(s)
	t.unindex(s)
	e.next = t.free
	t.free = s
	t.n2--
}

func (t *TLB) hit(s int32, at HitLevel) (Result, bool) {
	t.touch(s)
	e := &t.entries[s]
	return Result{Frame: e.frame, Level: e.lvl, Hit: at}, true
}

// Lookup searches both grains at both levels for a translation of v under
// vpid. An L1 hit at either grain beats an L2 hit (a transient 4KB
// translation and a 2MB entry can coexist); within a level the 2MB grain is
// tried first. On an L2 hit the entry is promoted to L1.
func (t *TLB) Lookup(v addr.Virt, vpid VPID) (Result, bool) {
	if t.set != nil {
		return t.lookupSet(v, vpid)
	}
	s2 := t.find(v.PageNum2M(), tagOf(pagetable.Level2M, vpid))
	if s2 >= 0 && t.entries[s2].inL1 {
		t.hitsL1.Inc()
		return t.hit(s2, HitL1)
	}
	s4 := t.find(v.PageNum4K(), tagOf(pagetable.Level4K, vpid))
	if s4 >= 0 && t.entries[s4].inL1 {
		t.hitsL1.Inc()
		return t.hit(s4, HitL1)
	}
	if s2 < 0 {
		s2 = s4
	}
	if s2 >= 0 {
		t.hitsL2.Inc()
		return t.hit(s2, HitL2)
	}
	t.misses.Inc()
	return Result{}, false
}

func pageNum(v addr.Virt, lvl pagetable.Level) uint64 {
	if lvl == pagetable.Level2M {
		return v.PageNum2M()
	}
	return v.PageNum4K()
}

// Insert caches a translation in both levels (inclusive hierarchy).
func (t *TLB) Insert(v addr.Virt, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	vpn := pageNum(v, lvl)
	if t.set != nil {
		t.insertSet(way{vpn: vpn, frame: frame, tag: tagOf(lvl, vpid)})
		return
	}
	if s := t.find(vpn, tagOf(lvl, vpid)); s >= 0 {
		t.entries[s].frame = frame
		t.touch(s)
		return
	}
	t.add(vpn, lvl, frame, vpid)
}

// Fill is Insert for a translation Lookup(v, vpid) has just missed: the key
// is known to be absent, so Fill skips Insert's probe for it. Only a page
// walk may run between the miss and the fill, and lvl must be the grain the
// walk found — one of the two keys the miss probed.
func (t *TLB) Fill(v addr.Virt, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	if t.set != nil {
		t.addSet(way{vpn: pageNum(v, lvl), frame: frame, tag: tagOf(lvl, vpid)})
		return
	}
	t.add(pageNum(v, lvl), lvl, frame, vpid)
}

// add caches a translation whose key is absent, evicting the least recent
// entry when the TLB is full. Its cell is the first empty one of the key's
// probe run: no key is compared.
func (t *TLB) add(vpn uint64, lvl pagetable.Level, frame addr.Phys, vpid VPID) {
	if t.n2 == len(t.entries) {
		t.remove(t.tail)
	}
	s := t.free
	e := &t.entries[s]
	t.free = e.next
	*e = entry{vpn: vpn, frame: frame, lvl: lvl, vpid: vpid}
	tag := tagOf(lvl, vpid)
	i := t.home(vpn, tag)
	for t.index[i].slot >= 0 {
		i = (i + 1) & t.mask
	}
	t.index[i] = cell{vpn: vpn, tag: tag, slot: s}
	t.n2++
	t.pushFront(s)
	t.touch(s)
}

// Invalidate drops any cached translation of v (both grains) under vpid —
// the invlpg analogue, required after poisoning or remapping a page.
func (t *TLB) Invalidate(v addr.Virt, vpid VPID) {
	if t.set != nil {
		k2, t2 := v.PageNum2M(), tagOf(pagetable.Level2M, vpid)
		k4, t4 := v.PageNum4K(), tagOf(pagetable.Level4K, vpid)
		t.dropSet(func(w *way) bool { return w.vpn == k2 && w.tag == t2 || w.vpn == k4 && w.tag == t4 })
		return
	}
	if s := t.find(v.PageNum4K(), tagOf(pagetable.Level4K, vpid)); s >= 0 {
		t.remove(s)
	}
	if s := t.find(v.PageNum2M(), tagOf(pagetable.Level2M, vpid)); s >= 0 {
		t.remove(s)
	}
}

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

// InvalidateRange drops every cached translation under vpid whose virtual
// page falls in r — the range-shootdown a munmap performs. Unlike per-page
// Invalidate it also catches transient 4KB translations BadgerTrap installed
// inside poisoned huge pages, whose bases the caller cannot enumerate.
func (t *TLB) InvalidateRange(r addr.Range, vpid VPID) {
	if t.set != nil {
		t.dropSet(func(w *way) bool {
			return VPID(w.tag) == vpid && r.Contains(pageBase(w.vpn, w.lvl()))
		})
		return
	}
	for s := t.head; s >= 0; {
		e := &t.entries[s]
		next := e.next
		if e.vpid == vpid && r.Contains(pageBase(e.vpn, e.lvl)) {
			t.remove(s)
		}
		s = next
	}
}

// pageBase is the first virtual address of page vpn at grain lvl.
func pageBase(vpn uint64, lvl pagetable.Level) addr.Virt {
	if lvl == pagetable.Level2M {
		return addr.Virt2M(vpn)
	}
	return addr.Virt4K(vpn)
}

// Flush empties the whole TLB.
func (t *TLB) Flush() {
	t.n1, t.n2 = 0, 0
	if t.set != nil {
		return
	}
	for i := range t.index {
		t.index[i].slot = nilSlot
	}
	for s := range t.entries {
		t.entries[s].next = int32(s) + 1
	}
	t.entries[len(t.entries)-1].next = nilSlot
	t.free = 0
	t.head, t.tail, t.l1tail = nilSlot, nilSlot, nilSlot
}

// Stats reports lookup outcome counts since construction.
type Stats struct {
	HitsL1 uint64
	HitsL2 uint64
	Misses uint64
}

// Lookups returns the total number of lookups.
func (s Stats) Lookups() uint64 { return s.HitsL1 + s.HitsL2 + s.Misses }

// MissRate returns misses / lookups (0 when no lookups).
func (s Stats) MissRate() float64 {
	n := s.Lookups()
	if n == 0 {
		return 0
	}
	return float64(s.Misses) / float64(n)
}

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() Stats {
	return Stats{HitsL1: t.hitsL1.Value(), HitsL2: t.hitsL2.Value(), Misses: t.misses.Value()}
}

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() {
	t.hitsL1.Reset()
	t.hitsL2.Reset()
	t.misses.Reset()
}

// Size returns the number of live entries at each level.
func (t *TLB) Size() (l1, l2 int) { return t.n1, t.n2 }
