package stats

import (
	"math"
	"testing"
	"testing/quick"

	"thermostat/internal/rng"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("Value = %d, want 42", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("Reset did not zero")
	}
}

func TestCounterAddSaturates(t *testing.T) {
	var c Counter
	c.Add(math.MaxUint64 - 1)
	c.Add(10) // would wrap to 8 without the guard
	if c.Value() != math.MaxUint64 {
		t.Fatalf("Value = %d, want saturation at MaxUint64", c.Value())
	}
	c.Inc() // saturated counter must stay saturated
	if c.Value() != math.MaxUint64 {
		t.Fatalf("Inc past saturation = %d", c.Value())
	}
	c.Add(0) // zero delta at the ceiling is still fine
	if c.Value() != math.MaxUint64 {
		t.Fatalf("Add(0) at ceiling = %d", c.Value())
	}

	var d Counter
	d.Add(math.MaxUint64) // exact ceiling in one step is not an overflow
	if d.Value() != math.MaxUint64 {
		t.Fatalf("Add(MaxUint64) = %d", d.Value())
	}
}

func TestRate(t *testing.T) {
	if got := Rate(30000, 1e9); got != 30000 {
		t.Errorf("Rate(30000, 1s) = %v", got)
	}
	if got := Rate(100, 0); got != 0 {
		t.Errorf("Rate with zero duration = %v, want 0", got)
	}
	if got := Rate(10, 2e9); got != 5 {
		t.Errorf("Rate(10, 2s) = %v, want 5", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.mean() != 0 || h.Quantile(0) != 0 {
		t.Fatal("empty histogram should return zeros")
	}
	for i := uint64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Quantile(0) != 1 || h.Max() != 1000 {
		t.Fatalf("Min/Max = %d/%d", h.Quantile(0), h.Max())
	}
	if m := h.mean(); math.Abs(m-500.5) > 0.01 {
		t.Fatalf("Mean = %v", m)
	}
	p50 := h.Quantile(0.5)
	if p50 < 400 || p50 > 600 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900 || p99 > 1000 {
		t.Fatalf("p99 = %d, want ~990", p99)
	}
}

func TestHistogramQuantileAccuracyProperty(t *testing.T) {
	// Quantiles must be within one log-bucket (~6%) of the true value for a
	// uniform sample.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := NewHistogram()
		const n = 5000
		for i := 0; i < n; i++ {
			h.Observe(r.Uint64n(1 << 20))
		}
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			got := float64(h.Quantile(q))
			want := q * float64(1<<20)
			if math.Abs(got-want) > 0.10*float64(1<<20) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if h.Quantile(0) != 0 || h.Max() != 0 || h.mean() != 0 {
		t.Fatalf("empty Min/Max/Mean = %d/%d/%v", h.Quantile(0), h.Max(), h.mean())
	}
}

func TestHistogramQuantileSingleBucket(t *testing.T) {
	// All mass in one (bucket, sub-bucket): every interior quantile must land
	// in that bucket, and the q<=0 / q>=1 clamps must return the exact
	// min/max even though the bucket floor is coarser.
	h := NewHistogram()
	const v = 1_000_003
	for i := 0; i < 100; i++ {
		h.Observe(v)
	}
	lo, _ := bucketOf(v)
	floor := bucketLow(bucketOf(v))
	if h.Quantile(0) != v || h.Quantile(1) != v {
		t.Fatalf("q0/q1 = %d/%d, want exact %d", h.Quantile(0), h.Quantile(1), v)
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got != floor {
			t.Fatalf("Quantile(%v) = %d, want bucket floor %d (bucket %d)", q, got, floor, lo)
		}
		if got > v || got < v/2 {
			t.Fatalf("Quantile(%v) = %d outside one log bucket of %d", q, got, v)
		}
	}

	// A single sample behaves the same way.
	one := NewHistogram()
	one.Observe(7)
	if one.Quantile(0.5) != 7 || one.Quantile(0) != 7 || one.Quantile(1) != 7 {
		t.Fatalf("single-sample quantiles = %d/%d/%d, want 7",
			one.Quantile(0), one.Quantile(0.5), one.Quantile(1))
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := uint64(0); i < 100; i++ {
		a.Observe(i)
		b.Observe(i + 100)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Quantile(0) != 0 || a.Max() != 199 {
		t.Fatalf("merged min/max = %d/%d", a.Quantile(0), a.Max())
	}
	// Merging an empty histogram is a no-op.
	before := a.Count()
	a.Merge(NewHistogram())
	if a.Count() != before {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramExtremes(t *testing.T) {
	h := NewHistogram()
	h.Observe(0)
	h.Observe(math.MaxUint64)
	if h.Quantile(0) != 0 || h.Max() != math.MaxUint64 {
		t.Fatalf("min/max = %d/%d", h.Quantile(0), h.Max())
	}
	if h.Quantile(0) != 0 {
		t.Fatal("q0 should be min")
	}
	if h.Quantile(1) != math.MaxUint64 {
		t.Fatal("q1 should be max")
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("cold")
	if s.Len() != 0 {
		t.Fatal("new series should be empty")
	}
	s.Append(0, 1)
	s.Append(1e9, 3)
	s.Append(2e9, 5)
	if s.Len() != 3 || s.Name != "cold" {
		t.Fatalf("Len/Name = %d/%q", s.Len(), s.Name)
	}
	for i, want := range []float64{1, 3, 5} {
		if s.Times[i] != int64(i)*1e9 || s.Values[i] != want {
			t.Fatalf("point %d = (%d, %v), want (%d, %v)", i, s.Times[i], s.Values[i], int64(i)*1e9, want)
		}
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPos := []float64{2, 4, 6, 8, 10}
	yNeg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, yPos); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive r = %v", r)
	}
	if r := Pearson(x, yNeg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative r = %v", r)
	}
	if r := Pearson(x, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Fatalf("zero-variance r = %v, want 0", r)
	}
	if r := Pearson(x, []float64{1}); r != 0 {
		t.Fatalf("mismatched lengths r = %v, want 0", r)
	}
}

func TestBucketMonotonicProperty(t *testing.T) {
	// bucketLow(bucketOf(v)) <= v for all v, and buckets are ordered.
	f := func(v uint64) bool {
		b, s := bucketOf(v)
		return bucketLow(b, s) <= v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDividerMatchesHardwareDivide: the reciprocal gives the quotient and
// remainder of / and % at the divisors the LLC and the clock use (1 000 and
// 46 080 sets, 8 threads), at powers of two, small primes and 2^32 − 1, for
// numerators at and around multiples of d, the last line a 32-bit LLC tag
// covers ((2^32 − 1)·d − 1), and 2^64 − 1.
func TestDividerMatchesHardwareDivide(t *testing.T) {
	for _, d := range []uint64{1, 2, 3, 7, 8, 720, 1000, 1024, 46080, 1<<32 - 1} {
		div := NewDivider(d)
		ns := []uint64{0, d - 1, d, (1<<32-1)*d - 1, math.MaxUint64}
		for _, k := range []uint64{2, 3, 1000, 1<<20 + 7, 1 << 31, math.MaxUint64 / d} {
			ns = append(ns, k*d-1, k*d)
		}
		for _, n := range ns {
			if q, rem := div.DivMod(n); q != n/d || rem != n%d {
				t.Errorf("DivMod(%d) by %d = %d, %d; want %d, %d", n, d, q, rem, n/d, n%d)
			}
		}
	}
}

func TestDividerProperty(t *testing.T) {
	f := func(n, d uint64) bool {
		if d == 0 {
			d = 1
		}
		q, rem := NewDivider(d).DivMod(n)
		return q == n/d && rem == n%d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100_000}); err != nil {
		t.Error(err)
	}
}

func TestDividerRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDivider(0) did not panic")
		}
	}()
	NewDivider(0)
}
