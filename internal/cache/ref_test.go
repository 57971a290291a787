package cache

import "thermostat/internal/addr"

// refCache is the LLC as it was before the 32-bit quotient tags: a flat
// array, allocated and zeroed up front, of whole line numbers biased by +1
// in 64 bits, indexed by line % nSets, LRU by move-to-front. It is the one
// reference the production cache is differentially tested against.
type refCache struct {
	lineShift    uint
	nSets        uint64
	ways         int
	tags         []uint64
	hits, misses uint64
}

func newRef(c *Cache) *refCache {
	return &refCache{
		lineShift: c.lineShift, nSets: c.nSets, ways: c.ways,
		tags: make([]uint64, c.nSets*uint64(c.ways)),
	}
}

func (c *refCache) set(p addr.Phys) (ways []uint64, tag uint64) {
	line := uint64(p) >> c.lineShift
	base := int(line%c.nSets) * c.ways
	return c.tags[base : base+c.ways], line + 1
}

func (c *refCache) Access(p addr.Phys) bool {
	ways, tag := c.set(p)
	for i := range ways {
		if ways[i] == tag {
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			c.hits++
			return true
		}
	}
	copy(ways[1:], ways)
	ways[0] = tag
	c.misses++
	return false
}

// lines returns the resident line numbers, set by set, most recent first.
func (c *refCache) lines() []uint64 {
	var out []uint64
	for _, t := range c.tags {
		if t != 0 {
			out = append(out, t-1)
		}
	}
	return out
}

// lines is the production cache's side of the residency comparison: every
// valid way as a line number (quotient × nSets + set), in the same order.
func (c *Cache) lines() []uint64 {
	var out []uint64
	for i, slab := range c.slabs {
		for j, t := range slab {
			if t != 0 {
				set := uint64(i)<<slabShift + uint64(j/c.ways)
				out = append(out, uint64(t-1)*c.nSets+set)
			}
		}
	}
	return out
}

// contains reports whether the line holding p is resident, without touching
// LRU state or counters.
func (c *Cache) contains(p addr.Phys) bool {
	line := uint64(p) >> c.lineShift
	for _, l := range c.lines() {
		if l == line {
			return true
		}
	}
	return false
}
