// Package cache models a set-associative last-level cache over physical
// addresses. The simulator uses it for two things: charging realistic memory
// latency only on misses, and providing the ground-truth per-page memory
// access rate (LLC misses per page) that Figure 2 plots against
// Accessed-bit-derived estimates.
package cache

import (
	"fmt"
	"math/bits"

	"thermostat/internal/addr"
	"thermostat/internal/stats"
)

// Config sizes the cache.
type Config struct {
	// SizeBytes is total capacity (default 45MB, the testbed's per-socket
	// LLC).
	SizeBytes uint64
	// LineSize is the cache-line size in bytes (default 64).
	LineSize uint64
	// Ways is the associativity (default 16).
	Ways int
}

// DefaultConfig matches the paper's Xeon E5-2699 v3 (45MB LLC).
func DefaultConfig() Config {
	return Config{SizeBytes: 45 << 20, LineSize: 64, Ways: 16}
}

// Tags are allocated lazily in slabs of slabSets consecutive sets (a power
// of two, so the slab lookup is a shift and a mask).
const (
	slabShift = 8
	slabSets  = 1 << slabShift
)

// maxQuotient is the largest line/nSets a way can hold: a tag is the
// quotient biased by +1 in 32 bits, 0 marking an empty way.
const maxQuotient = 1<<32 - 2

// Normalize applies the defaults for zero fields and rejects a geometry
// that cannot build a cache or cannot tag top, the highest physical address
// the cache will be handed.
func (cfg Config) Normalize(top addr.Phys) (Config, error) {
	if cfg.SizeBytes == 0 {
		cfg.SizeBytes = DefaultConfig().SizeBytes
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 16
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		return cfg, fmt.Errorf("LLC line size %d not a power of two", cfg.LineSize)
	}
	nSets := cfg.SizeBytes / cfg.LineSize / uint64(cfg.Ways)
	if nSets == 0 {
		return cfg, fmt.Errorf("LLC config %+v yields zero sets", cfg)
	}
	if last := uint64(top) / cfg.LineSize; last/nSets > maxQuotient {
		return cfg, fmt.Errorf("LLC of %d sets cannot tag physical address %s in 32 bits (needs at least %d sets)",
			nSets, top, last/(maxQuotient+1)+1)
	}
	return cfg, nil
}

// Cache is a set-associative LRU cache of physical line addresses.
type Cache struct {
	lineShift uint
	nSets     uint64
	sets      stats.Divider // divides by nSets
	ways      int
	// slabs[set>>slabShift] holds the tags of slabSets consecutive sets,
	// ways per set, most recent first. The set index is line % nSets, so a
	// tag need only hold line / nSets: 32 bits, and a 16-way set is one
	// 64-byte host cache line. A slab is nil until Access first touches one
	// of its sets, so building a cache costs the slab table, not the zeroed
	// tag array — a machine's set-up time does not depend on the LLC size or
	// on what the heap has lying around.
	slabs [][]uint32

	hits   stats.Counter
	misses stats.Counter
}

// New builds a cache from cfg, applying defaults for zero fields. It panics
// on a geometry Normalize rejects (sim.New reports that as an error).
func New(cfg Config) *Cache {
	cfg, err := cfg.Normalize(0)
	if err != nil {
		panic("cache: " + err.Error())
	}
	nSets := cfg.SizeBytes / cfg.LineSize / uint64(cfg.Ways)
	return &Cache{
		lineShift: uint(bits.TrailingZeros64(cfg.LineSize)),
		nSets:     nSets,
		sets:      stats.NewDivider(nSets),
		ways:      cfg.Ways,
		slabs:     make([][]uint32, (nSets+slabSets-1)>>slabShift),
	}
}

// Access looks up the line containing p, inserting it on a miss. Returns
// true on a hit. It panics, rather than alias two lines, on an address
// beyond what Normalize was asked to cover.
func (c *Cache) Access(p addr.Phys) bool {
	line := uint64(p) >> c.lineShift
	q, set := c.sets.DivMod(line)
	if q > maxQuotient {
		panic(fmt.Sprintf("cache: %d sets cannot tag physical address %s in 32 bits", c.nSets, p))
	}
	tag := uint32(q) + 1
	slab := c.slabs[set>>slabShift]
	if slab == nil {
		return c.accessNewSlab(set, tag)
	}
	base := int(set&(slabSets-1)) * c.ways
	ways := slab[base : base+c.ways]
	if ways[0] == tag {
		c.hits.Inc()
		return true
	}
	// Search the rest of the set.
	for i := 1; i < len(ways); i++ {
		if ways[i] == tag {
			// Move to front (LRU position 0).
			copy(ways[1:i+1], ways[:i])
			ways[0] = tag
			c.hits.Inc()
			return true
		}
	}
	// Miss: evict LRU (last way), shift, insert at front.
	copy(ways[1:], ways)
	ways[0] = tag
	c.misses.Inc()
	return false
}

// accessNewSlab is Access for a set whose slab has never been touched: the
// set is empty, so the access is a miss that fills way 0. The last slab
// covers only the sets that exist. Kept out of line, in tail position, so
// the allocation adds nothing to Access's hit path.
//
//go:noinline
func (c *Cache) accessNewSlab(set uint64, tag uint32) bool {
	i := set >> slabShift
	sets := c.nSets - i<<slabShift
	if sets > slabSets {
		sets = slabSets
	}
	slab := make([]uint32, sets*uint64(c.ways))
	slab[int(set&(slabSets-1))*c.ways] = tag
	c.slabs[i] = slab
	c.misses.Inc()
	return false
}

// Stats reports hit/miss counts.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// accesses returns total lookups.
func (s Stats) accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns misses/accesses (0 if none).
func (s Stats) MissRate() float64 {
	n := s.accesses()
	if n == 0 {
		return 0
	}
	return float64(s.Misses) / float64(n)
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Value(), Misses: c.misses.Value()}
}
