// Package kstaled reimplements the kernel's idle-page-tracking baseline the
// paper evaluates against (Lespinasse's kstaled, LWN 2011): periodically
// scan page-table Accessed bits, clear them, flush the TLB, and classify
// pages that stay unaccessed across consecutive scans as idle/cold.
//
// This mechanism produces Figure 1 (fraction of 2MB pages idle for 10s) and
// the motivation for Figure 2: the single Accessed bit per page says whether
// a page was touched, but not how often — so it cannot bound the performance
// cost of demoting a page, which is the gap Thermostat's fault-based access
// counting fills.
package kstaled

import (
	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

// DefaultEntryCostNs is the modeled per-PTE cost of one scan step: read and
// clear the Accessed bit plus the amortized invlpg.
const DefaultEntryCostNs = 150

// PageState tracks one leaf page's scan history.
type PageState struct {
	// IdleScans is the number of consecutive completed scans in which the
	// page's Accessed bit stayed clear.
	IdleScans int
	// HotStreak is the number of consecutive completed scans in which the
	// Accessed bit was found set (Figure 2's "hot = accessed in three
	// consecutive scan intervals").
	HotStreak int
	// Level is the leaf grain at the last scan.
	Level pagetable.Level
}

// Scanner is one kstaled instance over an address space.
type Scanner struct {
	pt   *pagetable.Table
	tl   *tlb.TLB
	vpid tlb.VPID

	// flag is the leaf bit the scanner reads and clears each pass:
	// Accessed for classic kstaled idle tracking, Dirty for soft-dirty
	// write tracking.
	flag pagetable.Flags

	state map[addr.Virt]*PageState

	entryCostNs int64
}

// New builds a scanner over the Accessed bit. entryCostNs <= 0 selects
// DefaultEntryCostNs.
func New(pt *pagetable.Table, tl *tlb.TLB, vpid tlb.VPID, entryCostNs int64) *Scanner {
	return NewWithFlag(pt, tl, vpid, entryCostNs, pagetable.Accessed)
}

// NewWithFlag builds a scanner that tracks the given leaf flag instead of
// Accessed — pagetable.Dirty turns it into a soft-dirty write tracker
// (clear-and-recheck over the dirty bit, as under /proc/pid/clear_refs).
func NewWithFlag(pt *pagetable.Table, tl *tlb.TLB, vpid tlb.VPID, entryCostNs int64, flag pagetable.Flags) *Scanner {
	if entryCostNs <= 0 {
		entryCostNs = DefaultEntryCostNs
	}
	return &Scanner{
		pt: pt, tl: tl, vpid: vpid,
		flag:        flag,
		state:       make(map[addr.Virt]*PageState),
		entryCostNs: entryCostNs,
	}
}

// Result summarizes one scan pass.
type Result struct {
	// Scanned is the number of leaf entries visited.
	Scanned int
	// AccessedSet is how many had the Accessed bit set.
	AccessedSet int
	// CostNs is the modeled CPU cost of the pass.
	CostNs int64
}

// Scan performs one pass: for every present leaf, record whether Accessed
// was set, clear it, and flush the page's TLB entry so the next touch
// re-sets it. Pages that disappeared since the last pass are forgotten.
func (s *Scanner) Scan() Result {
	var res Result
	seen := make(map[addr.Virt]struct{}, len(s.state))
	s.pt.ScanClear(s.flag, func(base addr.Virt, prior pagetable.Flags, lvl pagetable.Level) {
		res.Scanned++
		st := s.state[base]
		if st == nil {
			st = &PageState{}
			s.state[base] = st
		}
		st.Level = lvl
		seen[base] = struct{}{}
		if prior.Has(s.flag) {
			res.AccessedSet++
			st.IdleScans = 0
			st.HotStreak++
			s.tl.Invalidate(base, s.vpid)
		} else {
			st.IdleScans++
			st.HotStreak = 0
		}
	})
	// Forget unmapped pages.
	for base := range s.state {
		if _, ok := seen[base]; !ok {
			delete(s.state, base)
		}
	}
	res.CostNs = int64(res.Scanned) * s.entryCostNs
	return res
}

// StateBytes reports the scanner's resident metadata: one history record
// per tracked page.
func (s *Scanner) StateBytes() uint64 {
	// map key + pointer + PageState: ~8 + 8 + 32 bytes per entry.
	return uint64(len(s.state)) * 48
}

// State returns the scan history of the leaf page with the given base
// address, or nil if unknown.
func (s *Scanner) State(base addr.Virt) *PageState { return s.state[base] }

// IdleFraction returns the fraction of tracked bytes idle for at least n
// consecutive scans (0 if nothing is tracked). This is Figure 1's metric
// when the scan period times n equals the idle window.
func (s *Scanner) IdleFraction(n int) float64 {
	var idle, total uint64
	for _, st := range s.state {
		size := addr.PageSize4K
		if st.Level == pagetable.Level2M {
			size = addr.PageSize2M
		}
		total += size
		if st.IdleScans >= n {
			idle += size
		}
	}
	if total == 0 {
		return 0
	}
	return float64(idle) / float64(total)
}

// HotSubpages counts the 4KB children of the (split) 2MB page at hugeBase
// whose HotStreak is at least streak — the x-axis of Figure 2.
func (s *Scanner) HotSubpages(hugeBase addr.Virt, streak int) int {
	n := 0
	for i := 0; i < addr.PagesPerHuge; i++ {
		st := s.state[hugeBase+addr.Virt(uint64(i)*addr.PageSize4K)]
		if st != nil && st.HotStreak >= streak {
			n++
		}
	}
	return n
}

// AccessedSubpages returns the indices of 4KB children of the split 2MB page
// at hugeBase whose Accessed bit is currently set in the page table (without
// clearing). This is the pre-filter Thermostat's sampler runs before
// poisoning (§3.2 step one).
func AccessedSubpages(pt *pagetable.Table, hugeBase addr.Virt) []int {
	var out []int
	r := addr.NewRange(hugeBase, addr.PageSize2M)
	pt.ScanRange(r, func(v addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		if lvl == pagetable.Level4K && e.Has(pagetable.Accessed) {
			out = append(out, int(uint64(v-hugeBase)>>addr.PageShift4K))
		}
	})
	return out
}
