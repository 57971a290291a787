// Package numa provides the page-migration mechanism Thermostat uses to move
// data between memory tiers. The paper exposes slow memory to the guest as a
// separate NUMA zone and moves pages with the kernel's existing migration
// machinery; here each mem.Tier is a zone and the Migrator reproduces
// migrate_pages semantics: allocate in the destination, copy, remap, flush
// the TLB, free the source frame.
//
// The Migrator moves pages between any ordered tier pair of an N-tier
// hierarchy; copy cost is bounded by the slower endpoint's bandwidth. It
// meters traffic by direction and by (src, dst) pair so the harness can
// report the paper's Table 3 (migration rate vs. false-classification rate)
// and the N-tier per-pair traffic matrix.
package numa

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/tlb"
)

// defaultPerPageOverheadNs approximates the kernel's fixed migrate_pages
// bookkeeping cost per page (unmap, copy setup, remap).
const defaultPerPageOverheadNs = 3000

// Migrator moves pages between tiers. Every move is transactional: it either
// commits fully (remap + shootdown + source freed + traffic metered) or
// rolls back so page data, PTE flags, poison state, and tier occupancy are
// exactly as before the attempt.
type Migrator struct {
	sys   *mem.System
	pt    *pagetable.Table
	tl    *tlb.TLB
	meter *mem.Meter

	observer func(v addr.Virt, src, dst mem.TierID, bytes uint64, kind mem.TrafficKind, costNs int64)

	inj       *chaos.Injector
	clock     func() int64
	rollbacks uint64

	children []leaf // MoveHuge's reused list of a split region's 512 leaves
}

// NewMigrator builds a migrator over the given memory system, page table and
// TLB. Traffic is recorded into meter.
func NewMigrator(sys *mem.System, pt *pagetable.Table, tl *tlb.TLB, meter *mem.Meter) *Migrator {
	return &Migrator{sys: sys, pt: pt, tl: tl, meter: meter}
}

// Meter returns the traffic meter.
func (m *Migrator) Meter() *mem.Meter { return m.meter }

// SetObserver installs fn to be called after every successful migration
// (nil removes) — the telemetry layer's attachment point: the machine uses
// it to emit telemetry Migrated events with its virtual clock. fn must not
// migrate pages itself.
func (m *Migrator) SetObserver(fn func(v addr.Virt, src, dst mem.TierID, bytes uint64, kind mem.TrafficKind, costNs int64)) {
	m.observer = fn
}

// SetInjector installs a chaos injector (nil removes) and the virtual-clock
// source used to stamp injected faults. With a nil injector the migrator's
// behavior — including its allocation profile — is unchanged.
func (m *Migrator) SetInjector(inj *chaos.Injector, clock func() int64) {
	m.inj = inj
	m.clock = clock
}

// Rollbacks returns how many migration transactions were aborted after
// destination allocation and fully undone.
func (m *Migrator) Rollbacks() uint64 { return m.rollbacks }

func (m *Migrator) now() int64 {
	if m.clock == nil {
		return 0
	}
	return m.clock()
}

// leaf is one leaf mapping a move remaps, with its pre-move frame and flag
// word so rollback can restore it.
type leaf struct {
	v     addr.Virt
	frame addr.Phys
	flags pagetable.Flags
}

// abort rolls back a partially-applied move: already-remapped leaves are
// remapped onto their original frames with their exact prior flag words
// (Remap clears Accessed|Dirty, so flags are restored through EntryRef),
// stale translations are shot down, and the destination frame is freed.
// Invalidate is idempotent, so re-shooting a leaf invalidated on the forward
// path is harmless.
func (m *Migrator) abort(dst mem.TierID, frame addr.Phys, huge bool, done []leaf, vpid tlb.VPID) {
	for i := len(done) - 1; i >= 0; i-- {
		u := done[i]
		if _, err := m.pt.Remap(u.v, u.frame); err != nil {
			// The leaf was remapped moments ago; undoing it cannot fail.
			panic(fmt.Sprintf("numa: rollback remap of %s failed: %v", u.v, err))
		}
		if e, _, ok := m.pt.EntryRef(u.v); ok {
			e.Put(u.flags)
		}
		m.tl.Invalidate(u.v, vpid)
	}
	if huge {
		m.sys.Tier(dst).Free2M(frame)
	} else {
		m.sys.Tier(dst).Free4K(frame)
	}
	m.rollbacks++
}

// copyCost returns the virtual-time cost of copying n bytes between tiers,
// bounded by the slower tier's bandwidth.
func (m *Migrator) copyCost(src, dst mem.TierID, n uint64) int64 {
	bw := m.sys.Tier(src).Spec().Bandwidth
	if b := m.sys.Tier(dst).Spec().Bandwidth; b < bw {
		bw = b
	}
	if bw <= 0 {
		return defaultPerPageOverheadNs
	}
	return int64(float64(n)/bw*1e9) + defaultPerPageOverheadNs
}

// TierOfPage returns the tier currently backing the leaf mapping v.
func (m *Migrator) TierOfPage(v addr.Virt) (mem.TierID, error) {
	e, _, ok := m.pt.Lookup(v)
	if !ok {
		return 0, fmt.Errorf("numa: %s unmapped", v)
	}
	return m.sys.TierOf(e.Frame), nil
}

// MoveHuge migrates the entire 2MB region containing v to tier dst. The
// region may be mapped as a single huge leaf or as 512 split 4KB leaves over
// one physical 2MB frame (a sampled page); in the split case the mapping
// stays split — children are remapped onto the new frame preserving their
// flags (including Poisoned, so §3.5 monitoring survives migration).
//
// Returns the virtual-time cost. Migrating a page already in dst is an
// error; callers decide placement first.
func (m *Migrator) MoveHuge(v addr.Virt, dst mem.TierID, vpid tlb.VPID, kind mem.TrafficKind) (int64, error) {
	hv := v.Base2M()
	e, lvl, ok := m.pt.Lookup(hv)
	if !ok {
		return 0, fmt.Errorf("numa: MoveHuge of unmapped %s", hv)
	}
	src := m.sys.TierOf(e.Frame)
	if src == dst {
		return 0, fmt.Errorf("numa: %s already in %s tier", hv, dst)
	}
	oldBase := e.Frame.Base2M()
	if lvl == pagetable.Level2M {
		return m.move("MoveHuge", hv, src, dst, []leaf{{hv, oldBase, e.Flags}}, true, nil, vpid, kind)
	}
	// Split region: every child must be 4K-mapped over the old frame.
	var bad error
	m.children = m.children[:0]
	for i := 0; i < addr.PagesPerHuge; i++ {
		cv := hv + addr.Virt(uint64(i)*addr.PageSize4K)
		ce, clvl, ok := m.pt.Lookup(cv)
		if !ok || clvl != pagetable.Level4K {
			bad = fmt.Errorf("child %d not 4K-mapped", i)
			break
		}
		if ce.Frame.Base2M() != oldBase {
			bad = fmt.Errorf("child %d not contiguous", i)
			break
		}
		m.children = append(m.children, leaf{cv, ce.Frame, ce.Flags})
	}
	return m.move("MoveHuge", hv, src, dst, m.children, true, bad, vpid, kind)
}

// Move4K migrates a single natively-4K-mapped page (one whose frame was
// allocated at 4KB grain, e.g. file-cache mappings) to tier dst.
func (m *Migrator) Move4K(v addr.Virt, dst mem.TierID, vpid tlb.VPID, kind mem.TrafficKind) (int64, error) {
	pv := v.Base4K()
	e, lvl, ok := m.pt.Lookup(pv)
	if !ok {
		return 0, fmt.Errorf("numa: Move4K of unmapped %s", pv)
	}
	if lvl != pagetable.Level4K {
		return 0, fmt.Errorf("numa: Move4K of huge-mapped %s", pv)
	}
	if e.Flags.Has(pagetable.SplitSampled) {
		return 0, fmt.Errorf("numa: Move4K of split-THP child %s (use MoveHuge)", pv)
	}
	src := m.sys.TierOf(e.Frame)
	if src == dst {
		return 0, fmt.Errorf("numa: %s already in %s tier", pv, dst)
	}
	return m.move("Move4K", pv, src, dst, []leaf{{pv, e.Frame.Base4K(), e.Flags}}, false, nil, vpid, kind)
}

// move is the one migration transaction: allocate a frame in dst (2MB when
// huge, else 4KB), copy, remap leaf i onto the new frame at offset i×4KB
// (Remap keeps Poisoned), shoot the leaves down, then free the source frame
// and meter and observe the move. Any fault or error in between rolls back
// to the exact pre-move state. bad is a verification failure the caller
// found; it fails the move once the destination is allocated, so the
// DestFull draw and the rollback count see it as they always have. op and v
// name the move in errors.
func (m *Migrator) move(op string, v addr.Virt, src, dst mem.TierID, leaves []leaf, huge bool, bad error, vpid tlb.VPID, kind mem.TrafficKind) (int64, error) {
	var now int64
	if m.inj != nil {
		now = m.now()
	}
	if f := m.inj.Inject(chaos.DestFull, now); f != nil {
		f.Cause = mem.ErrOutOfMemory
		return 0, fmt.Errorf("numa: %s %s: %w", op, v, f)
	}
	bytes := addr.PageSize4K
	alloc := m.sys.Tier(dst).Alloc4K
	if huge {
		bytes, alloc = addr.PageSize2M, m.sys.Tier(dst).Alloc2M
	}
	newFrame, err := alloc()
	if err != nil {
		return 0, fmt.Errorf("numa: %s %s: %w", op, v, err)
	}
	if bad != nil {
		m.abort(dst, newFrame, huge, nil, vpid)
		return 0, fmt.Errorf("numa: %s %s: %w", op, v, bad)
	}

	// Mid-copy abort point: when MigrateCopy fires, the transaction dies
	// before leaf failAt with the leaves ahead of it already remapped, and
	// rollback must restore them. A one-leaf move dies before its remap; a
	// split region draws the index.
	failAt := -1
	var copyFault *chaos.Fault
	if f := m.inj.Inject(chaos.MigrateCopy, now); f != nil {
		copyFault, failAt = f, 0
		if len(leaves) > 1 {
			failAt = m.inj.AbortIndex(len(leaves))
		}
	}
	for i, l := range leaves {
		if i == failAt {
			m.abort(dst, newFrame, huge, leaves[:i], vpid)
			return 0, fmt.Errorf("numa: %s %s: %w", op, v, copyFault)
		}
		if _, err := m.pt.Remap(l.v, newFrame+addr.Phys(uint64(i)*addr.PageSize4K)); err != nil {
			m.abort(dst, newFrame, huge, leaves[:i], vpid)
			return 0, err
		}
		m.tl.Invalidate(l.v, vpid)
	}
	if f := m.inj.Inject(chaos.TLBShootdown, now); f != nil {
		m.abort(dst, newFrame, huge, leaves, vpid)
		return 0, fmt.Errorf("numa: %s %s: %w", op, v, f)
	}

	if huge {
		m.sys.Tier(src).Free2M(leaves[0].frame.Base2M())
	} else {
		m.sys.Tier(src).Free4K(leaves[0].frame)
	}
	m.meter.RecordPair(kind, src, dst, bytes)
	cost := m.copyCost(src, dst, bytes)
	if m.observer != nil {
		m.observer(v, src, dst, bytes, kind, cost)
	}
	return cost, nil
}
