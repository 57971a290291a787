package sim

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
)

// Verify checks machine-wide invariants that any amount of splitting,
// migration, poisoning and collapsing must preserve:
//
//  1. no two leaf mappings share a physical 4KB frame;
//  2. every mapped byte is charged to its tier's allocator (mapped bytes
//     never exceed the tier's Used accounting);
//  3. split-THP children are physically contiguous within one aligned 2MB
//     frame (the invariant MoveHuge and Collapse rely on);
//  4. huge-leaf frames are 2MB-aligned;
//  5. every mapped frame belongs to a configured tier of the hierarchy.
//
// Tests call this after integration runs; it is O(mapped pages).
func (m *Machine) Verify() error {
	type frameUse struct {
		v   addr.Virt
		lvl pagetable.Level
	}
	owner := make(map[uint64]frameUse) // 4K frame number -> first user
	mappedByTier := map[mem.TierID]uint64{}

	var err error
	m.pt.Scan(func(base addr.Virt, pte *pagetable.PTE, lvl pagetable.Level) {
		if err != nil {
			return
		}
		e := pte.Entry()
		tier := mem.TierOf(e.Frame)
		if int(tier) >= m.sys.NumTiers() {
			err = fmt.Errorf("sim: leaf %s frame %s belongs to tier %d outside the %d-tier hierarchy",
				base, e.Frame, int(tier), m.sys.NumTiers())
			return
		}
		switch lvl {
		case pagetable.Level2M:
			if e.Frame.Base2M() != e.Frame {
				err = fmt.Errorf("sim: huge leaf %s has unaligned frame %s", base, e.Frame)
				return
			}
			mappedByTier[tier] += addr.PageSize2M
			for i := uint64(0); i < uint64(addr.PagesPerHuge); i++ {
				fn := e.Frame.FrameNum4K() + i
				if prev, dup := owner[fn]; dup {
					err = fmt.Errorf("sim: frame %#x mapped by both %s and %s", fn, prev.v, base)
					return
				}
				owner[fn] = frameUse{v: base, lvl: lvl}
			}
		case pagetable.Level4K:
			mappedByTier[tier] += addr.PageSize4K
			fn := e.Frame.FrameNum4K()
			if prev, dup := owner[fn]; dup {
				err = fmt.Errorf("sim: frame %#x mapped by both %s and %s", fn, prev.v, base)
				return
			}
			owner[fn] = frameUse{v: base, lvl: lvl}
			if e.Flags.Has(pagetable.SplitSampled) {
				// Contiguity: child i of the region must sit at parent
				// frame + i.
				idx := base.SubpageIndex()
				want := e.Frame.Base2M() + addr.Phys(uint64(idx)*addr.PageSize4K)
				if e.Frame != want {
					err = fmt.Errorf("sim: split child %s frame %s breaks contiguity", base, e.Frame)
					return
				}
			}
		}
	})
	if err != nil {
		return err
	}
	for tier, mapped := range mappedByTier {
		used := m.sys.Tier(tier).Used()
		if mapped > used {
			return fmt.Errorf("sim: %s tier maps %d bytes but allocator charged only %d",
				tier, mapped, used)
		}
	}
	return nil
}
