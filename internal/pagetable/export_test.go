package pagetable

import "thermostat/internal/addr"

// Translate resolves v to a physical address using Lookup (no side effects).
func (t *Table) Translate(v addr.Virt) (addr.Phys, bool) {
	e, lvl, ok := t.Lookup(v)
	if !ok {
		return 0, false
	}
	if lvl == Level2M {
		return e.Frame + addr.Phys(v.Offset2M()), true
	}
	return e.Frame + addr.Phys(v.Offset4K()), true
}

// IsSplit reports whether the 2MB region containing v is currently mapped by
// 4KB leaves created from a split huge page.
func (t *Table) IsSplit(v addr.Virt) bool {
	e, _ := t.entryRef(v)
	return e != nil && e.Has(SplitSampled)
}
