package cache

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

// eagerCache is the flat-array LLC the lazy slabs replaced: the whole tag
// array allocated and zeroed up front, same indexing, same LRU. It is kept
// as the reference the production cache is differentially tested against.
type eagerCache struct {
	lineShift    uint
	nSets        uint64
	ways         int
	tags         []uint64
	hits, misses uint64
}

func newEager(c *Cache) *eagerCache {
	return &eagerCache{
		lineShift: c.lineShift, nSets: c.nSets, ways: c.ways,
		tags: make([]uint64, c.nSets*uint64(c.ways)),
	}
}

func (c *eagerCache) set(p addr.Phys) (ways []uint64, tag uint64) {
	line := uint64(p) >> c.lineShift
	base := int(line%c.nSets) * c.ways
	return c.tags[base : base+c.ways], line + 1
}

func (c *eagerCache) Access(p addr.Phys) bool {
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

func (c *eagerCache) Contains(p addr.Phys) bool {
	ways, tag := c.set(p)
	for _, t := range ways {
		if t == tag {
			return true
		}
	}
	return false
}

func (c *eagerCache) Flush() {
	for i := range c.tags {
		c.tags[i] = 0
	}
}

// TestLazySlabsMatchEagerArray drives the lazy-slab cache and the eager
// reference with one seeded trace — a zipf-ish hot set mixed with a
// streaming sweep, so sets see hits, LRU reorders and evictions — and
// requires the identical hit/miss sequence, identical Stats, and agreeing
// Contains probes before and after a mid-trace Flush. The geometry has a
// short last slab (1000 sets = 3 full slabs + 232 sets).
func TestLazySlabsMatchEagerArray(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	c := New(Config{SizeBytes: 1000 * 8 * 64, LineSize: 64, Ways: 8})
	ref := newEager(c)
	r := rng.New(7)
	hot := rng.NewZipfian(rng.NewStream(7, 1), 4096, 0.99)
	var stream uint64
	probe := func(when string) {
		t.Helper()
		for i := 0; i < 2000; i++ {
			p := addr.Phys(r.Uint64n(1 << 24))
			if got, want := c.Contains(p), ref.Contains(p); got != want {
				t.Fatalf("%s: Contains(%s) = %v, eager reference says %v", when, p, got, want)
			}
		}
	}
	for i := 0; i < n; i++ {
		var p addr.Phys
		if r.Bool(0.6) {
			p = addr.Phys(hot.Next()*64*17 + r.Uint64n(64))
		} else {
			stream += 64
			p = addr.Phys(1<<22 + stream%(1<<23))
		}
		if got, want := c.Access(p), ref.Access(p); got != want {
			t.Fatalf("access %d (%s): hit = %v, eager reference says %v", i, p, got, want)
		}
		if i == n/2 {
			probe("before flush")
			c.Flush()
			ref.Flush()
			probe("after flush")
		}
	}
	probe("end of trace")
	if got, want := c.Stats(), (Stats{Hits: ref.hits, Misses: ref.misses}); got != want {
		t.Fatalf("stats %+v, eager reference %+v", got, want)
	}
}

// TestUntouchedSlabContainsNothing: Contains on a set whose slab Access has
// never touched is a miss and allocates nothing; Flush returns touched slabs
// to that state.
func TestUntouchedSlabContainsNothing(t *testing.T) {
	c := New(Config{SizeBytes: 4 * slabSets * 2 * 64, LineSize: 64, Ways: 2})
	if len(c.slabs) != 4 {
		t.Fatalf("%d slabs, want 4", len(c.slabs))
	}
	inSlab2 := addr.Phys(2 * slabSets * 64)
	if c.Contains(inSlab2) {
		t.Fatal("Contains hit in a cache never accessed")
	}
	c.Access(addr.Phys(0))
	if c.Contains(inSlab2) || c.slabs[2] != nil {
		t.Fatal("Contains on an untouched slab hit or allocated it")
	}
	if c.slabs[0] == nil || c.slabs[1] != nil || c.slabs[3] != nil {
		t.Fatal("Access allocated other than the touched slab")
	}
	c.Flush()
	if c.Contains(addr.Phys(0)) || c.slabs[0] != nil {
		t.Fatal("Flush left a slab behind")
	}
}
