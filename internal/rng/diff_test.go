package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"
)

var (
	diffNs     = []uint64{3, 512, 2048, 2560, 4096, 83968, 1 << 20, 1 << 24}
	diffThetas = []float64{0.5, 0.9, YCSBTheta}
)

// refItem is what z must return where the reference draws rank v: v, or
// for a scrambled sampler the scrambled item.
func refItem(z *Zipfian, v uint64) uint64 {
	if z.scramble {
		return Hash64(v) % z.n
	}
	return v
}

// diffDraws compares z with the Pow reference on the same seeded stream.
func diffDraws(z *Zipfian, seed uint64, draws int) error {
	z.r = New(seed)
	ref := newRefZipfian(New(seed), z)
	for i := 0; i < draws; i++ {
		if got, want := z.Next(), refItem(z, ref.Next()); got != want {
			return fmt.Errorf("n=%d theta=%v scrambled=%v seed=%d draw %d: got %d, reference %d",
				z.n, z.theta, z.scramble, seed, i, got, want)
		}
	}
	return nil
}

// diffKs compares z with the Pow reference on chosen 53-bit draws.
func diffKs(z *Zipfian, ks ...uint64) error {
	ref := newRefZipfian(nil, z)
	for _, k := range ks {
		if got, want := z.draw(k), refItem(z, ref.draw(unit(k))); got != want {
			return fmt.Errorf("n=%d theta=%v scrambled=%v k=%#x (bucket %d): got %d, reference %d",
				z.n, z.theta, z.scramble, k, k>>z.shift, got, want)
		}
	}
	return nil
}

// bucketDraws returns bucket b's first and last draw at z's own width.
func bucketDraws(z *Zipfian, b uint64) (first, last uint64) {
	first = b << z.shift
	return first, first | (1<<z.shift - 1)
}

// diffBucketEdges feeds z every bucket's first and last draw: the two draws
// that decide its classification and the pair on either side of every
// boundary between buckets.
func diffBucketEdges(z *Zipfian) error {
	ks := make([]uint64, 0, 2*len(z.guide))
	for b := range z.guide {
		first, last := bucketDraws(z, uint64(b))
		ks = append(ks, first, last)
	}
	return diffKs(z, ks...)
}

// TestZipfianMatchesPowReference runs the plain sampler, and the scrambled
// one on a quarter of the random draws, against the reference.
func TestZipfianMatchesPowReference(t *testing.T) {
	draws := 1 << 22
	if testing.Short() {
		draws = 1 << 18
	}
	for _, n := range diffNs {
		for _, theta := range diffThetas {
			for _, z := range []*Zipfian{NewZipfian(nil, n, theta), NewScrambledZipfian(nil, n, theta)} {
				if z.guide == nil {
					t.Fatalf("n=%d theta=%v: no guide table", n, theta)
				}
				perSeed := draws / 2
				if z.scramble {
					perSeed /= 4
				}
				for seed := uint64(1); seed <= 2; seed++ {
					if err := diffDraws(z, seed, perSeed); err != nil {
						t.Fatal(err)
					}
				}
				if err := diffBucketEdges(z); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestZipfianDiffCatchesLooseGuide seeds the mutation the margin and the
// second endpoint exist to prevent — a bucket called constant from its first
// draw alone — and requires the differential checks to notice.
func TestZipfianDiffCatchesLooseGuide(t *testing.T) {
	for _, n := range []uint64{512, 83968} {
		loose := func() *Zipfian {
			z := NewZipfian(nil, n, YCSBTheta)
			for b := range z.guide {
				lo := z.tail(unit(uint64(b) << z.shift))
				z.guide[b] = guideConst + uint32(min(uint64(lo), z.n-1))
			}
			return z
		}
		if diffBucketEdges(loose()) == nil {
			t.Errorf("n=%d: bucket edges agree with a guide built from first draws only", n)
		}
		if diffDraws(loose(), 1, 1<<16) == nil {
			t.Errorf("n=%d: 2^16 draws agree with a guide built from first draws only", n)
		}
	}
}

// TestZipfianDiffCatchesLooseHead plants the mutation the straddle case of
// Zipfian.constant exists to prevent — each bucket holding a head threshold
// called constant from its first draw — into the built table, and requires
// the differential checks to notice.
func TestZipfianDiffCatchesLooseHead(t *testing.T) {
	for _, n := range []uint64{512, 83968} {
		loose := func() *Zipfian {
			z := NewZipfian(nil, n, YCSBTheta)
			for b := range z.guide {
				first, last := bucketDraws(z, uint64(b))
				lo, hi := unit(first)*z.zetan, unit(last)*z.zetan
				switch {
				case lo < 1 && hi >= 1:
					z.guide[b] = guideConst
				case lo < z.head2 && hi >= z.head2:
					z.guide[b] = guideConst + 1
				}
			}
			return z
		}
		if diffBucketEdges(loose()) == nil {
			t.Errorf("n=%d: bucket edges agree with head buckets called constant", n)
		}
		if diffDraws(loose(), 1, 1<<20) == nil {
			t.Errorf("n=%d: 2^20 draws agree with head buckets called constant", n)
		}
	}
}

// TestZipfianMarginRejectsCloseCall pins the margin on the one close call a
// search of n < 6000 over the three thetas found away from the top bucket:
// both endpoint values truncate to 3272, but the last is 2.1e-9 below 3273 —
// inside (j+1)*2^-40 = 3.0e-9 — so the bucket stays on the Pow path.
func TestZipfianMarginRejectsCloseCall(t *testing.T) {
	const n, bucket = 5984, 61207
	z := NewZipfian(nil, n, YCSBTheta)
	if len(z.guide) != 1<<guideMaxBits {
		t.Fatalf("%d buckets, want %d", len(z.guide), 1<<guideMaxBits)
	}
	first, last := bucketDraws(z, bucket)
	lo, hi := z.tail(unit(first)), z.tail(unit(last))
	if math.Floor(lo) != 3272 || math.Floor(hi) != 3272 || 3273-hi >= 3273*guideMargin {
		t.Fatalf("endpoints %v, %v are no longer a close call", lo, hi)
	}
	if err := diffKs(z, first, first+(last-first)/2, last); err != nil {
		t.Fatal(err)
	}
	if z.guide[bucket] != guideMixed {
		t.Errorf("guide[%d] = %d, want mixed", bucket, z.guide[bucket])
	}
}

func TestZipfianTinyPopulations(t *testing.T) {
	for n := uint64(1); n <= 3; n++ {
		z := NewZipfian(New(n), n, YCSBTheta)
		if math.IsNaN(z.eta) || math.IsNaN(z.head2) || math.IsNaN(z.zetan) {
			t.Errorf("n=%d: NaN parameter: %+v", n, z)
		}
		if (z.guide != nil) != (n == 3) {
			t.Errorf("n=%d: guide table present = %v", n, z.guide != nil)
		}
		seen := make([]int, n)
		for i := 0; i < 1<<16; i++ {
			v := z.Next()
			if v >= n {
				t.Fatalf("n=%d: draw %d out of range: %d", n, i, v)
			}
			seen[v]++
		}
		for item, c := range seen {
			if c == 0 {
				t.Errorf("n=%d: item %d never drawn in 2^16 draws", n, item)
			}
		}
	}
	// The largest draw is the one that used to reach the power branch for
	// n = 2 when the two roundings of 2^-theta disagreed.
	for _, theta := range diffThetas {
		if v := NewZipfian(nil, 2, theta).draw(1<<53 - 1); v != 1 {
			t.Errorf("n=2 theta=%v: largest draw = %d, want 1", theta, v)
		}
	}
}

// TestZipfianNextDoesNotAllocate pins 0 allocations per draw, over table
// hits and mixed buckets, and a table that construction filled: both kinds
// of entry present, every constant a valid item, and no entry written by a
// draw.
func TestZipfianNextDoesNotAllocate(t *testing.T) {
	const n = 83968
	z := NewZipfian(New(1), n, YCSBTheta)
	built := slices.Clone(z.guide)
	if allocs := testing.AllocsPerRun(1<<16, func() { z.Next() }); allocs != 0 {
		t.Errorf("%v allocs per draw", allocs)
	}
	if !slices.Equal(z.guide, built) {
		t.Error("draws wrote the guide table")
	}
	var mixed, constant int
	for b, e := range z.guide {
		switch {
		case e == guideMixed:
			mixed++
		case e-guideConst < n:
			constant++
		default:
			t.Fatalf("guide[%d] = %d: neither mixed nor an item below %d", b, e, n)
		}
	}
	if mixed == 0 || constant == 0 {
		t.Errorf("construction did not leave both kinds of bucket: %d mixed, %d constant", mixed, constant)
	}
}

// TestZipfianGuideSize pins the table size, 2^ceil(log2(16n)) buckets up to
// 2^16, at the populations the benchmark workloads' samplers draw from, and
// logs the share of constant buckets — of draws that the table answers — of
// a scrambled sampler at YCSB's theta. A rank change leaves at most one
// bucket mixed, so at most n buckets in 16n are.
func TestZipfianGuideSize(t *testing.T) {
	for _, tc := range []struct{ n, buckets uint64 }{
		{86, 2048}, {512, 8192}, {922, 16384}, {1024, 16384},
		{1741, 32768}, {2048, 32768}, {2560, 65536}, {4096, 65536},
	} {
		z := NewScrambledZipfian(nil, tc.n, YCSBTheta)
		if got := uint64(len(z.guide)); got != tc.buckets || got<<z.shift != 1<<53 {
			t.Errorf("n=%d: %d buckets of 2^%d draws, want %d buckets spanning 2^53", tc.n, got, z.shift, tc.buckets)
		}
		mixed := 0
		for _, e := range z.guide {
			if e == guideMixed {
				mixed++
			}
		}
		if uint64(mixed) > tc.n {
			t.Errorf("n=%d: %d mixed buckets, more than one per item", tc.n, mixed)
		}
		t.Logf("n=%d: %d buckets (%d KB), %.1f %% constant", tc.n, len(z.guide), 4*len(z.guide)>>10,
			100*float64(len(z.guide)-mixed)/float64(len(z.guide)))
	}
}

// TestZipfianBisectionMatchesPerBucket holds the bisection-built table to
// the per-bucket classification it replaced (refGuide): a bucket may be
// mixed where the oracle is constant, but never constant where it is mixed,
// and never a different constant.
func TestZipfianBisectionMatchesPerBucket(t *testing.T) {
	for _, n := range diffNs {
		for _, theta := range diffThetas {
			zetan := zeta(n, theta)
			for _, scramble := range []bool{false, true} {
				z := newZipfian(nil, n, theta, zetan, scramble)
				ref := refGuide(z)
				var mixed, refMixed int
				for b, e := range z.guide {
					if e == guideMixed {
						mixed++
					} else if e != ref[b] {
						t.Fatalf("n=%d theta=%v scrambled=%v: guide[%d] = %d, per-bucket %d",
							n, theta, scramble, b, e, ref[b])
					}
					if ref[b] == guideMixed {
						refMixed++
					}
				}
				t.Logf("n=%d theta=%v scrambled=%v: %d mixed buckets, per-bucket %d", n, theta, scramble, mixed, refMixed)
			}
		}
	}
}

// fuzzZipfian decodes a FuzzZipfianVsPow input: one byte picking theta, eight
// (little-endian) picking n, then eight per draw, of which the low 53 bits
// count. n lands in [3, 2^26], or just past guideMaxN where no table is
// built. zetan is a 2^13-term sum plus the integral of the rest: the exact
// sum is up to 2^20 Pow calls per input, and a zetan within a fraction of a
// percent of it exercises the same code.
func fuzzZipfian(data []byte, scramble bool) (z *Zipfian, ks []uint64) {
	if len(data) < 9 {
		return nil, nil
	}
	theta := diffThetas[int(data[0])%len(diffThetas)]
	raw := binary.LittleEndian.Uint64(data[1:])
	n := 3 + raw%(1<<26-2)
	if raw > guideMaxN {
		n = guideMaxN + 1 + raw%(1<<20)
	}
	const head = 1 << 13
	zetan := zeta(min(n, head), theta)
	if n > head {
		zetan += (math.Pow(float64(n), 1-theta) - math.Pow(head, 1-theta)) / (1 - theta)
	}
	for data = data[9:]; len(data) >= 8; data = data[8:] {
		ks = append(ks, binary.LittleEndian.Uint64(data)&(1<<53-1))
	}
	return newZipfian(nil, n, theta, zetan, scramble), ks
}

// FuzzZipfianVsPow feeds raw draws to a fresh sampler, plain and scrambled,
// and to the Pow reference; seeds are in testdata/fuzz/FuzzZipfianVsPow.
func FuzzZipfianVsPow(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, scramble := range []bool{false, true} {
			z, ks := fuzzZipfian(data, scramble)
			if z == nil {
				return
			}
			if err := diffKs(z, ks...); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// zipfBenchNs are the Zipf segments of websearch-tlbhit (512 and 4096
// pages), bigmem-scan (83 968) and the 2^20 population BenchmarkZipfianNext
// always had.
var zipfBenchNs = []uint64{512, 4096, 83968, 1 << 20}

func BenchmarkZipfianNext(b *testing.B) {
	for _, n := range zipfBenchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipfian(New(1), n, YCSBTheta)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = z.Next()
			}
		})
	}
}

// BenchmarkZipfianBuild times the construction of a scrambled sampler, the
// kind workload.Zipf draws from, with its guide table. zeta's O(n) sum (up
// to 2^20 Pow calls, unchanged by the table) is taken once, before the
// timer.
func BenchmarkZipfianBuild(b *testing.B) {
	for _, n := range zipfBenchNs {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			zetan := zeta(n, YCSBTheta)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = newZipfian(nil, n, YCSBTheta, zetan, true)
			}
		})
	}
}
