package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestStreamsDiffer(t *testing.T) {
	a, b := NewStream(7, 1), NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different streams produced %d/100 identical values", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 1 << 12, 1<<63 + 9} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestUniformMean(t *testing.T) {
	r := New(11)
	const n, iters = 1000, 200000
	var sum float64
	for i := 0; i < iters; i++ {
		sum += float64(r.Uint64n(n))
	}
	mean := sum / iters
	if math.Abs(mean-float64(n-1)/2) > 5 {
		t.Fatalf("uniform mean = %v, want ~%v", mean, float64(n-1)/2)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(6)
	for k := 0; k <= 60; k += 10 {
		s := r.Sample(50, k)
		wantLen := k
		if k > 50 {
			wantLen = 50
		}
		if len(s) != wantLen {
			t.Fatalf("Sample(50, %d) returned %d items", k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("Sample(50, %d) invalid: %v", k, s)
			}
			seen[v] = true
		}
	}
}

// Property: Sample always returns distinct in-range values.
func TestSampleProperty(t *testing.T) {
	f := func(seed uint64, nRaw, kRaw uint16) bool {
		n := int(nRaw%500) + 1
		k := int(kRaw % 600)
		s := New(seed).Sample(n, k)
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		want := k
		if want > n {
			want = n
		}
		return len(s) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestZipfianSkew(t *testing.T) {
	r := New(13)
	z := NewZipfian(r, 10000, YCSBTheta)
	const iters = 200000
	counts := make(map[uint64]int)
	for i := 0; i < iters; i++ {
		v := z.Next()
		if v >= 10000 {
			t.Fatalf("Zipfian out of range: %d", v)
		}
		counts[v]++
	}
	// Item 0 must be by far the most popular; top-10 items should carry a
	// large share of traffic under theta=0.99.
	top10 := 0
	for i := uint64(0); i < 10; i++ {
		top10 += counts[i]
	}
	if frac := float64(top10) / iters; frac < 0.25 {
		t.Fatalf("top-10 Zipfian share = %v, want >= 0.25", frac)
	}
	if counts[0] <= counts[9] {
		t.Fatalf("item 0 (%d draws) not hotter than item 9 (%d draws)", counts[0], counts[9])
	}
}

func TestZipfianLargeN(t *testing.T) {
	// Construction with n > 2^20 exercises the zeta tail approximation.
	z := NewZipfian(New(17), 1<<24, YCSBTheta)
	for i := 0; i < 1000; i++ {
		if v := z.Next(); v >= 1<<24 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestScrambledZipfianSpreads(t *testing.T) {
	s := NewScrambledZipfian(New(19), 1<<16, YCSBTheta)
	lowHalf := 0
	const iters = 50000
	for i := 0; i < iters; i++ {
		if s.Next() < 1<<15 {
			lowHalf++
		}
	}
	// Plain Zipfian would put almost everything in the low half; scrambled
	// should be roughly balanced between halves.
	frac := float64(lowHalf) / iters
	if frac < 0.3 || frac > 0.7 {
		t.Fatalf("scrambled low-half share = %v, want ~0.5", frac)
	}
}

func TestZipfianBadThetaPanics(t *testing.T) {
	for _, theta := range []float64{0, 1, -0.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("theta %v did not panic", theta)
				}
			}()
			NewScrambledZipfian(nil, 512, theta)
		}()
	}
}

func TestHotspotShares(t *testing.T) {
	// A 0.0001 hot fraction of 1 000 000 items is the first 100.
	h := NewHotspot(New(23), 1_000_000, 0.0001, 0.90)
	const iters, hotN = 200000, 100
	hot := 0
	for i := 0; i < iters; i++ {
		if h.Next() < hotN {
			hot++
		}
	}
	frac := float64(hot) / iters
	if math.Abs(frac-0.90) > 0.02 {
		t.Fatalf("hot traffic share = %v, want ~0.90", frac)
	}
}

func TestHotspotTinyPopulation(t *testing.T) {
	h := NewHotspot(New(29), 3, 0.0001, 0.9)
	for i := 0; i < 100; i++ {
		if v := h.Next(); v >= 3 {
			t.Fatalf("out of range: %d", v)
		}
	}
}

func TestHash64Bijective(t *testing.T) {
	// Spot-check injectivity on a window.
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Hash64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: Hash64(%d) == Hash64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func BenchmarkPCGUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
