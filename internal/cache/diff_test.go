package cache

import (
	"slices"
	"testing"
	"unsafe"

	"thermostat/internal/addr"
	"thermostat/internal/mem"
	"thermostat/internal/rng"
)

// sameResidents fails unless c and ref hold the same lines in the same LRU
// order in every set.
func sameResidents(t *testing.T, when string, c *Cache, ref *refCache) {
	t.Helper()
	got, want := c.lines(), ref.lines()
	if slices.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Fatalf("%s: %d resident lines, reference %d; they differ from resident line %d on", when, len(got), len(want), i)
}

// TestLazySlabsMatchEagerArray drives the cache and the reference with one
// seeded trace — a zipf-ish hot set mixed with a streaming sweep, so sets see
// hits, LRU reorders and evictions — and requires the identical hit/miss
// sequence, identical Stats, and the identical resident set mid-trace and at
// the end. The geometry has a short last slab (1000 sets = 3 full slabs +
// 232 sets). One access in five goes to a tier-1 band that replays the hot
// set 125 × 2^38 bytes up (tier 1 + 61 × 2^38): 125 × 2^32 lines is the
// smallest distance that keeps both the set (a multiple of 1000) and the low
// 32 bits of the line number, so a tag that drops the high bits reports the
// band's lines as the hot set's.
func TestLazySlabsMatchEagerArray(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	c := New(Config{SizeBytes: 1000 * 8 * 64, LineSize: 64, Ways: 8})
	ref := newRef(c)
	r := rng.New(7)
	hot := rng.NewZipfian(rng.NewStream(7, 1), 4096, 0.99)
	const band = addr.Phys(125 << 38)
	if mem.TierOf(band) != 1 {
		t.Fatalf("band base %s is in tier %d", band, mem.TierOf(band))
	}
	var stream uint64
	for i := 0; i < n; i++ {
		var p addr.Phys
		switch u := r.Uint64n(10); {
		case u < 4:
			p = addr.Phys(hot.Next()*64*17 + r.Uint64n(64))
		case u < 6:
			p = band + addr.Phys(hot.Next()*64*17+r.Uint64n(64))
		default:
			stream += 64
			p = addr.Phys(1<<22 + stream%(1<<23))
		}
		if got, want := c.Access(p), ref.Access(p); got != want {
			t.Fatalf("access %d (%s): hit = %v, reference says %v", i, p, got, want)
		}
		if i == n/2 {
			sameResidents(t, "mid-trace", c, ref)
		}
	}
	sameResidents(t, "end of trace", c, ref)
	if got, want := c.Stats(), (Stats{Hits: ref.hits, Misses: ref.misses}); got != want {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
}

// fuzzHeader is the number of geometry bytes a differential program starts
// with; opBytes the length of each encoded access after it.
const (
	fuzzHeader = 4
	opBytes    = 4
)

// runDiff decodes prog into a geometry and an address stream, applies the
// stream to a cache and to the reference, and fails on the first different
// hit/miss, on different Stats, or on a different resident set at the end.
//
// Header: ways = 1 + b0%32; sets = 1 + (b1 | b2<<8)%1200, so set counts are
// mostly not powers of two and most geometries end in a short slab; line
// size 64 << (b3&1). Each op is {mode, hi, lo0, lo1}: the low 16 bits pick a
// line, mode>>3 a byte inside it. mode&3 < 2 is that tier-0 offset as is;
// 2 adds hi (9 bits, bit 8 from mode&4) × 2^38, so hi = 64k is tier k's
// base k<<44; 3 counts the offset down from the last taggable byte. Every
// address is folded below the geometry's tagging limit, which Access
// panics beyond.
func runDiff(t *testing.T, prog []byte) {
	t.Helper()
	if len(prog) < fuzzHeader {
		return
	}
	cfg := Config{Ways: 1 + int(prog[0])%32, LineSize: 64 << (prog[3] & 1)}
	nSets := 1 + (uint64(prog[1])|uint64(prog[2])<<8)%1200
	cfg.SizeBytes = nSets * uint64(cfg.Ways) * cfg.LineSize
	c := New(cfg)
	ref := newRef(c)
	limit := (maxQuotient + 1) * nSets * cfg.LineSize
	prog = prog[fuzzHeader:]
	for n := 0; len(prog) >= opBytes; n, prog = n+1, prog[opBytes:] {
		mode := prog[0]
		off := (uint64(prog[2])|uint64(prog[3])<<8)<<6 | uint64(mode>>3)<<1
		switch mode & 3 {
		case 2:
			off += (uint64(prog[1]) | uint64(mode&4)<<6) << 38
		case 3:
			off = limit - 1 - off
		}
		p := addr.Phys(off % limit)
		if got, want := c.Access(p), ref.Access(p); got != want {
			t.Fatalf("%+v, %d sets, access %d (%s): hit = %v, reference says %v", cfg, nSets, n, p, got, want)
		}
	}
	if got, want := c.Stats(), (Stats{Hits: ref.hits, Misses: ref.misses}); got != want {
		t.Fatalf("%+v, %d sets: stats %+v, reference %+v", cfg, nSets, got, want)
	}
	sameResidents(t, "end of program", c, ref)
}

// TestCacheMatchesRef runs seeded random programs through runDiff; the low
// line bytes are narrowed so that a few thousand accesses revisit lines.
func TestCacheMatchesRef(t *testing.T) {
	progs, ops := 200, 4000
	if testing.Short() {
		progs = 40
	}
	for seed := 1; seed <= progs; seed++ {
		r := rng.New(uint64(seed))
		prog := make([]byte, fuzzHeader+ops*opBytes)
		for i := range prog {
			prog[i] = byte(r.Uint64n(256))
		}
		for i := fuzzHeader; i < len(prog); i += opBytes {
			prog[i+1] &= 0xc1 // tier bases and their neighbours
			prog[i+3] &= 0x03
		}
		runDiff(t, prog)
	}
}

// FuzzCacheVsRef runs runDiff on the fuzzer's program; seeds are in
// testdata/fuzz/FuzzCacheVsRef.
func FuzzCacheVsRef(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runDiff(t, data) })
}

// TestTagBoundary: the last line 65 sets can tag (quotient 2^32-2, tag
// 0xffffffff) is cached like any other, and the next address panics with
// its name rather than wrap to the empty tag.
func TestTagBoundary(t *testing.T) {
	c := New(Config{SizeBytes: 65 * 2 * 64, LineSize: 64, Ways: 2})
	last := addr.Phys((maxQuotient+1)*65*64 - 1)
	if _, err := (Config{SizeBytes: 65 * 2 * 64, Ways: 2}).Normalize(last); err != nil {
		t.Fatalf("Normalize rejects the last taggable address: %v", err)
	}
	if c.Access(last) || !c.Access(last) || !c.Access(last-63) {
		t.Fatal("last taggable line: want miss, hit, hit")
	}
	if got := c.lines(); len(got) != 1 || got[0] != uint64(last)>>6 {
		t.Fatalf("resident lines %v, want the last taggable line %d", got, uint64(last)>>6)
	}
	_, err := (Config{SizeBytes: 65 * 2 * 64, Ways: 2}).Normalize(last + 1)
	if want := "LLC of 65 sets cannot tag physical address " + (last + 1).String() + " in 32 bits (needs at least 66 sets)"; err == nil || err.Error() != want {
		t.Fatalf("Normalize(%s) = %v, want %q", last+1, err, want)
	}
	defer func() {
		want := "cache: 65 sets cannot tag physical address " + (last + 1).String() + " in 32 bits"
		if got := recover(); got != want {
			t.Fatalf("Access(%s) panic = %v, want %q", last+1, got, want)
		}
	}()
	c.Access(last + 1)
}

// TestHighLineBitsNeverAlias: two lines of one set whose numbers differ only
// above bit 32 — the same 32 low bits of the old line+1 tag — are two lines.
func TestHighLineBitsNeverAlias(t *testing.T) {
	c := New(Config{SizeBytes: 1 << 20, LineSize: 64, Ways: 16}) // 1024 sets
	lo := addr.Phys(5 * 64)
	for k := uint64(0); k < mem.MaxTiers; k++ {
		for _, hi := range []addr.Phys{addr.Phys(k << mem.TierShift), addr.Phys(k<<mem.TierShift + 1<<38)} {
			if hi != 0 && c.Access(lo+hi) {
				t.Fatalf("%s hit: aliased with a line %d × 2^32 lines below it", lo+hi, uint64(hi)>>38)
			}
		}
	}
	if c.Access(lo) {
		t.Fatalf("%s hit before it was ever accessed", lo)
	}
	if got := len(c.lines()); got != 16 {
		t.Fatalf("%d resident lines in the set, want all 16 ways distinct", got)
	}
}

// TestSetIsOneHostLine: with the paper's geometry every slab starts on a
// 64-byte boundary and a set is 64 bytes, so no set straddles a host line.
func TestSetIsOneHostLine(t *testing.T) {
	c := New(DefaultConfig())
	if got := uintptr(c.ways) * unsafe.Sizeof(c.slabs[0][0]); got != 64 {
		t.Fatalf("a set is %d bytes, want 64", got)
	}
	r := rng.New(3)
	for i := 0; i < 5000; i++ {
		tier := r.Uint64n(2) << mem.TierShift
		c.Access(addr.Phys(tier + r.Uint64n(1<<32)))
	}
	touched := 0
	for i, slab := range c.slabs {
		if slab == nil {
			continue
		}
		touched++
		if a := uintptr(unsafe.Pointer(unsafe.SliceData(slab))); a%64 != 0 {
			t.Fatalf("slab %d starts at %#x, not 64-byte aligned", i, a)
		}
	}
	if touched < len(c.slabs)/2 {
		t.Fatalf("trace touched %d of %d slabs", touched, len(c.slabs))
	}
}

// TestAccessDoesNotAllocate: once a slab exists, hits, reorders and evicting
// misses in it allocate nothing.
func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(DefaultConfig())
	stride := addr.Phys(c.nSets * 64) // same set, next quotient
	// The first tier-1 line that maps to set 0: slab 0 again.
	tier1 := addr.Phys(1<<mem.TierShift) + stride - addr.Phys(1<<mem.TierShift)%stride
	c.Access(0)
	var k addr.Phys
	if allocs := testing.AllocsPerRun(200, func() {
		c.Access(k * stride)            // miss, evicting once the set is full
		c.Access(k * stride)            // MRU hit
		c.Access((k / 2) * stride)      // deeper hit or miss
		c.Access(tier1 + k%slabSets*64) // other sets of the slab
		c.Access(tier1 + k/2%slabSets*64)
		k++
	}); allocs != 0 {
		t.Fatalf("%v allocs per round of accesses to existing slabs", allocs)
	}
}

// TestUntouchedSlabContainsNothing: a slab stays nil until Access touches
// one of its sets, and Access allocates only that slab.
func TestUntouchedSlabContainsNothing(t *testing.T) {
	c := New(Config{SizeBytes: 4 * slabSets * 2 * 64, LineSize: 64, Ways: 2})
	if len(c.slabs) != 4 {
		t.Fatalf("%d slabs, want 4", len(c.slabs))
	}
	inSlab2 := addr.Phys(2 * slabSets * 64)
	if c.contains(inSlab2) {
		t.Fatal("line resident in a cache never accessed")
	}
	c.Access(addr.Phys(0))
	if c.contains(inSlab2) || !c.contains(addr.Phys(0)) {
		t.Fatal("residency wrong after one access")
	}
	if c.slabs[0] == nil || c.slabs[1] != nil || c.slabs[2] != nil || c.slabs[3] != nil {
		t.Fatal("Access allocated other than the touched slab")
	}
}
