// Package stats provides the measurement primitives the simulator and the
// experiment harness share: counters, rates, log-scaled latency histograms
// with percentile queries, fixed-interval time series, and the reciprocal
// divider the access path divides by a fixed divisor with.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Counter is a monotonically increasing event count. The zero value is ready
// to use. Counter is not safe for concurrent use; the simulator is
// single-threaded per machine by design (virtual time).
type Counter struct {
	n uint64
}

// Add increments the counter by delta, saturating at the maximum uint64
// rather than wrapping: a counter that silently restarts from zero would
// corrupt every rate computed from it.
func (c *Counter) Add(delta uint64) {
	if c.n > math.MaxUint64-delta {
		c.n = math.MaxUint64
		return
	}
	c.n += delta
}

// Inc increments the counter by one, with the same saturation as Add.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n = 0 }

// Divider divides by a divisor fixed at construction with a multiply and one
// correction step instead of a hardware divide, exactly for every uint64
// numerator. r = ⌊(2^64−1)/d⌋ satisfies 2^64 − d ≤ r·d < 2^64, so the
// estimate hi(n·r) lies in (n/d − 2, n/d) and is ⌊n/d⌋ or one less; one
// compare of the remainder against d settles which (DESIGN.md "LLC tags").
type Divider struct {
	d, r uint64
}

// NewDivider returns the divider for d. It panics on d == 0.
func NewDivider(d uint64) Divider {
	if d == 0 {
		panic("stats: division by zero")
	}
	return Divider{d: d, r: math.MaxUint64 / d}
}

// DivMod returns n / d and n % d.
func (v Divider) DivMod(n uint64) (q, rem uint64) {
	q, _ = bits.Mul64(n, v.r)
	rem = n - q*v.d
	if rem >= v.d {
		q++
		rem -= v.d
	}
	return q, rem
}

// Rate converts a count observed over a duration (in nanoseconds) to a
// per-second rate. Returns 0 for non-positive durations.
func Rate(count uint64, durNs int64) float64 {
	if durNs <= 0 {
		return 0
	}
	return float64(count) * 1e9 / float64(durNs)
}

// Histogram is a log2-bucketed histogram of non-negative integer samples
// (typically latencies in nanoseconds). Buckets are [2^i, 2^(i+1)) with
// sub-bucket linear refinement, giving ~3% relative error on percentiles
// while staying allocation-free per sample.
type Histogram struct {
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
	buckets [64][subBuckets]uint64
}

const subBuckets = 16

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxUint64}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	b, s := bucketOf(v)
	h.buckets[b][s]++
}

func bucketOf(v uint64) (int, int) {
	if v < subBuckets {
		return 0, int(v)
	}
	b := 63 - bits.LeadingZeros64(v)
	// Linear position of the top subBuckets-worth of bits below the MSB.
	s := int((v >> (uint(b) - 4)) & (subBuckets - 1))
	return b, s
}

func bucketLow(b, s int) uint64 {
	if b == 0 {
		return uint64(s)
	}
	return 1<<uint(b) | uint64(s)<<(uint(b)-4)
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Mean returns the sample mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Max returns the largest sample.
func (h *Histogram) Max() uint64 { return h.max }

// Quantile returns an approximation of the q-quantile (q in [0, 1]).
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(q * float64(h.count))
	var seen uint64
	for b := 0; b < 64; b++ {
		for s := 0; s < subBuckets; s++ {
			seen += h.buckets[b][s]
			if seen > target {
				return bucketLow(b, s)
			}
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	h.count += other.count
	h.sum += other.sum
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for b := range h.buckets {
		for s := range h.buckets[b] {
			h.buckets[b][s] += other.buckets[b][s]
		}
	}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

// Series is a fixed-interval time series of float64 samples, used for the
// footprint-over-time figures. Points are appended with their timestamps;
// the series does not interpolate.
type Series struct {
	Name   string
	Times  []int64 // nanoseconds of virtual time
	Values []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Append records a point.
func (s *Series) Append(timeNs int64, v float64) {
	s.Times = append(s.Times, timeNs)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Values) }

// Last returns the most recent value (0 if empty).
func (s *Series) Last() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	return s.Values[len(s.Values)-1]
}

// Mean returns the average of all points (0 if empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Max returns the largest value (0 if empty).
func (s *Series) Max() float64 {
	m := 0.0
	for i, v := range s.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// MeanAfter returns the average of points with time >= fromNs, useful for
// skipping warm-up. Returns 0 if no points qualify.
func (s *Series) MeanAfter(fromNs int64) float64 {
	sum, n := 0.0, 0
	for i, ts := range s.Times {
		if ts >= fromNs {
			sum += s.Values[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// sample vectors. Returns 0 when undefined (fewer than two points or zero
// variance).
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
