package cache

import (
	"testing"
	"testing/quick"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{SizeBytes: 512, LineSize: 64, Ways: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(addr.Phys(0)) {
		t.Fatal("cold access hit")
	}
	if !c.Access(addr.Phys(0)) {
		t.Fatal("warm access missed")
	}
	if !c.Access(addr.Phys(63)) {
		t.Fatal("same-line access missed")
	}
	if c.Access(addr.Phys(64)) {
		t.Fatal("next-line access hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	c := small() // 4 sets, 2 ways: lines mapping to set 0 are 0, 4, 8, ...
	lineBytes := uint64(64)
	setStride := 4 * lineBytes
	a := addr.Phys(0 * setStride)
	b := addr.Phys(1 * setStride)
	d := addr.Phys(2 * setStride)
	c.Access(a)
	c.Access(b)
	c.Access(a) // refresh a; b is LRU
	c.Access(d) // evicts b
	if !c.contains(a) {
		t.Fatal("recently used line evicted")
	}
	if c.contains(b) {
		t.Fatal("LRU line survived")
	}
	if !c.contains(d) {
		t.Fatal("inserted line missing")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, LineSize: 64, Ways: 16})
	// Touch 256KB twice; second pass must be all hits.
	for pass := 0; pass < 2; pass++ {
		c.ResetStats()
		for off := uint64(0); off < 256<<10; off += 64 {
			c.Access(addr.Phys(off))
		}
		if pass == 1 && c.Stats().Misses != 0 {
			t.Fatalf("resident working set missed %d times", c.Stats().Misses)
		}
	}
}

func TestWorkingSetExceedsCapacityThrashes(t *testing.T) {
	c := New(Config{SizeBytes: 64 << 10, LineSize: 64, Ways: 16})
	// Stream 1MB repeatedly: with LRU and a working set 16x capacity,
	// essentially everything misses.
	c.ResetStats()
	for pass := 0; pass < 2; pass++ {
		for off := uint64(0); off < 1<<20; off += 64 {
			c.Access(addr.Phys(off))
		}
	}
	if mr := c.Stats().MissRate(); mr < 0.99 {
		t.Fatalf("streaming miss rate = %v, want ~1", mr)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := New(Config{})
	if c.nSets == 0 || c.ways != 16 {
		t.Fatalf("defaults not applied: %d sets, %d ways", c.nSets, c.ways)
	}
}

func TestBadLineSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two line")
		}
	}()
	New(Config{SizeBytes: 1024, LineSize: 48, Ways: 2})
}

func TestMissRateEmpty(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty MissRate should be 0")
	}
}

// Property: an immediate re-access of any address is always a hit, and the
// hit+miss counters always sum to the access count.
func TestReaccessHitsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(Config{SizeBytes: 8 << 10, LineSize: 64, Ways: 4})
		accesses := uint64(0)
		for i := 0; i < 500; i++ {
			p := addr.Phys(r.Uint64n(1 << 20))
			c.Access(p)
			accesses++
			if !c.Access(p) {
				return false
			}
			accesses++
		}
		return c.Stats().Accesses() == accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c := New(DefaultConfig())
	c.Access(addr.Phys(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Phys(0))
	}
}

// BenchmarkCacheAccessFullLLC is the case a whole run pays: the paper's
// 45 MB geometry with every one of its 46 080 sets in use, so the tag array
// is out of the host's L2, at about 85 % hits. Each access picks a set
// uniformly and, six times in seven, one of 8 quotients that stay resident
// in it; the seventh is a line from a range too large to be. The stream is
// 4 M lines long so that such a line is evicted before it comes round again.
func BenchmarkCacheAccessFullLLC(b *testing.B) {
	c := New(DefaultConfig())
	r := rng.New(1)
	lines := make([]uint32, 1<<22)
	for i := range lines {
		set, q := r.Uint64n(c.nSets), r.Uint64n(8)
		if r.Uint64n(7) == 0 {
			q = 8 + r.Uint64n(1<<16)
		}
		lines[i] = uint32(q*c.nSets + set)
	}
	for _, l := range lines {
		c.Access(addr.Phys(l) << 6)
	}
	c.ResetStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Phys(lines[i&(len(lines)-1)]) << 6)
	}
	b.ReportMetric(100*c.Stats().MissRate(), "miss%")
}

func BenchmarkCacheAccessStream(b *testing.B) {
	c := New(DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addr.Phys(uint64(i) * 64))
	}
}
