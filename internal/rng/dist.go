package rng

import (
	"math"
	"math/bits"
)

// Zipfian draws from a Zipfian distribution over [0, n) with parameter theta,
// using the Gray et al. rejection-free method popularized by YCSB. Item 0 is
// the most popular.
//
// A draw is a 53-bit integer k, u = k/2^53: item 0 if u*zetan < 1, item 1 if
// u*zetan < 1+0.5^theta, otherwise trunc(n * Pow(eta*u-eta+1, alpha)). The
// whole map is memoised in a guide table over k's top bits: each of its
// equal slices of [0, 2^53) is mixed or constant v. The table
// is read first; a constant bucket is the answer, and only a mixed one
// evaluates the expression, head tests and Pow, as before. The sequence is
// bit-for-bit the one the expression alone produces, by this argument about
// a range of draws [a, b], where b may lie past the range:
//
//   - unit(k)*zetan is one correctly rounded product of an exact k/2^53, so
//     it is non-decreasing in k. A range whose value at b is below 1 is item
//     0 throughout; one whose value at a is at least 1 and at b below
//     1+0.5^theta is item 1 throughout; one that straddles either threshold
//     is not constant; and in one whose value at a passes both tests every
//     draw reaches Pow, where the next three points apply.
//   - With 0 < eta <= 1 the base x(k) = eta*u-eta+1 is computed by
//     correctly rounded (or fused) operations that are each monotone in
//     their varying operand, so as a float64 it is non-decreasing in k and
//     stays in [0, 1]. The true power x^alpha is monotone on [0, 1], so
//     every k inside the range has a true value between the true values at
//     a and b.
//   - math.Pow(x, alpha) is Exp(yf*Log x), |yf| <= 1/2, times one
//     square-and-multiply step per bit of alpha's integer part. The first
//     factor is good to a few dozen ulp at worst (a value that can be
//     classified is at least 2^-40, which bounds |yf*Log x|), the squarings
//     add about one ulp per unit of alpha, and the product with n one more:
//     a relative error under (alpha+64) ulp, below 2^-44 for
//     alpha <= guideMaxAlpha.
//   - A range is constant only when both edge values p truncate to the same
//     j and lie in [j+m, j+1-m] with m = (j+1)*guideMargin. An interior
//     value is then within 2*2^-44*(j+1) = m/8 of that interval, so it
//     truncates to j as well.
//
// The argument holds for buckets of any width, so the table is sized to the
// population: 2^ceil(log2(16n)) buckets, at most 2^guideMaxBits. A rank
// change leaves about one bucket mixed, so about one bucket in 16 or fewer
// is, and the table of a small population stays small in the host's caches.
//
// NewZipfian fills the table by bisection over bucket ranges (fill): a
// range [lo, hi) is checked on the first draw of bucket lo and the first
// draw of bucket hi, which bounds every draw of the range from above (at hi
// = len(guide) it is u = 1 exactly). A range that passes is that constant;
// one that fails is split at its midpoint, whose edge serves both halves,
// down to single buckets, which stay mixed. So a build pays one Pow per
// edge it evaluates, about one per rank change, not two per bucket. A mixed
// bucket merely keeps paying for the expression; parameters outside the
// argument (n <= 2, an item that does not fit the entry, a very large alpha)
// get no table at all. A scrambled sampler's entries hold the scrambled
// item, so its hash and divide run only on a mixed bucket.
type Zipfian struct {
	r        *PCG
	n        uint64
	nf       float64 // float64(n)
	theta    float64
	alpha    float64
	zetan    float64
	eta      float64
	zeta2    float64
	head2    float64  // 1 + 0.5^theta: u*zetan below this is item 1
	guide    []uint32 // per bucket: guideMixed or guideConst+v
	shift    uint     // a draw k falls in bucket k >> shift
	scramble bool     // items are Hash64(v) % n (NewScrambledZipfian)
}

// YCSBTheta is the Zipfian skew YCSB uses by default.
const YCSBTheta = 0.99

const (
	guideMaxBits = 16 // at most 2^16 uint32 entries: 256 KB per Zipfian
	guidePerItem = 16 // buckets per item, before rounding up to a power of two

	guideMixed = 0 // draws in the bucket disagree, or too close to call
	guideConst = 1 // entry - guideConst is every draw's item

	guideMargin   = 1.0 / (1 << 40)
	guideMaxAlpha = 1 << 8
	guideMaxN     = math.MaxUint32 - guideConst
)

// NewZipfian returns a Zipfian distribution over [0, n) with skew theta
// (0 < theta < 1; larger is more skewed).
func NewZipfian(r *PCG, n uint64, theta float64) *Zipfian {
	return newZipfian(r, n, theta, zeta(n, theta), false)
}

// NewScrambledZipfian returns a Zipfian distribution over [0, n) whose
// items are scrambled: the draw of rank v returns Hash64(v) % n, so
// popularity stays skewed but hot keys land at arbitrary positions instead
// of clustering at low indices, as when YCSB drives a key-value store.
func NewScrambledZipfian(r *PCG, n uint64, theta float64) *Zipfian {
	return newZipfian(r, n, theta, zeta(n, theta), true)
}

// newZipfian is the constructors given zetan = zeta(n, theta), their O(n)
// part. The table's constant entries hold items, so scramble is fixed here,
// before they are filled.
func newZipfian(r *PCG, n uint64, theta, zetan float64, scramble bool) *Zipfian {
	if n == 0 {
		panic("rng: NewZipfian(0)")
	}
	if !(theta > 0 && theta < 1) {
		panic("rng: Zipfian theta must be in (0, 1)")
	}
	z := &Zipfian{r: r, n: n, nf: float64(n), theta: theta, zetan: zetan, scramble: scramble}
	z.zeta2 = zeta(2, theta)
	z.alpha = 1 / (1 - theta)
	if n <= 2 {
		// The head tests cover both items: zetan is exactly 1 for n = 1, and
		// for n = 2 an infinite head2 sends every other draw to item 1. eta
		// would be 0/0 for n = 2 and is never needed.
		z.head2 = math.Inf(1)
		return z
	}
	z.head2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/z.nf, 1-theta)) / (1 - z.zeta2/z.zetan)
	if z.eta > 0 && z.eta <= 1 && z.alpha <= guideMaxAlpha && n <= guideMaxN {
		b := guideBits(n)
		z.guide = make([]uint32, 1<<b)
		z.shift = 53 - b
		z.fill(0, 1<<b, z.edge(0), z.edge(1<<53))
	}
	return z
}

// guideBits is log2 of the table size for a population of n:
// ceil(log2(guidePerItem*n)), at most guideMaxBits.
func guideBits(n uint64) uint {
	return uint(min(bits.Len64(guidePerItem*n-1), guideMaxBits))
}

func zeta(n uint64, theta float64) float64 {
	// Direct sum for small n; for large n use the Euler-Maclaurin
	// approximation so construction stays O(1)-ish.
	if n <= 1<<20 {
		sum := 0.0
		for i := uint64(1); i <= n; i++ {
			sum += 1 / math.Pow(float64(i), theta)
		}
		return sum
	}
	head := zeta(1<<20, theta)
	// Integral approximation of the tail sum_{i=2^20+1}^{n} i^-theta.
	a, b := float64(uint64(1<<20)), float64(n)
	tail := (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	return head + tail
}

// Next returns the next item index; 0 is hottest.
func (z *Zipfian) Next() uint64 { return z.draw(z.r.Uint64() >> 11) }

// draw maps the 53-bit uniform k (PCG.Float64's numerator) to its item.
func (z *Zipfian) draw(k uint64) uint64 {
	// shift is at most 53; the mask spares the guard for shifts of 64 or more.
	if b := k >> (z.shift & 63); b < uint64(len(z.guide)) {
		if e := z.guide[b]; e != guideMixed {
			return uint64(e - guideConst)
		}
	}
	return z.slow(k)
}

// slow evaluates the expression, for a mixed bucket or when there is no
// table.
func (z *Zipfian) slow(k uint64) uint64 {
	u := unit(k)
	uz := u * z.zetan
	if uz < 1 {
		return z.item(0)
	}
	if uz < z.head2 {
		return z.item(1)
	}
	return z.item(min(uint64(z.tail(u)), z.n-1))
}

// item is the value a draw of Zipfian rank v returns.
func (z *Zipfian) item(v uint64) uint64 {
	if z.scramble {
		return Hash64(v) % z.n
	}
	return v
}

// tail is the inverse CDF past the two head items, before truncation.
func (z *Zipfian) tail(u float64) float64 {
	return z.nf * math.Pow(z.eta*u-z.eta+1, z.alpha)
}

// edge is a range boundary's first draw as constant reads it: uz =
// u*zetan, and p = tail(u) once uz passes both head tests (unused before).
type edge struct{ uz, p float64 }

func (z *Zipfian) edge(k uint64) edge {
	u := unit(k)
	e := edge{uz: u * z.zetan}
	if e.uz >= z.head2 {
		e.p = z.tail(u)
	}
	return e
}

// fill classifies buckets [lo, hi), given the first draws of buckets lo and
// hi: the whole range if the argument on Zipfian proves it constant, else
// each half, sharing the midpoint's edge. A single bucket that fails stays
// mixed, the zero value.
func (z *Zipfian) fill(lo, hi uint64, elo, ehi edge) {
	if v, ok := z.constant(elo, ehi); ok {
		e := guideConst + uint32(z.item(v))
		for b := lo; b < hi; b++ {
			z.guide[b] = e
		}
		return
	}
	if hi-lo == 1 {
		return
	}
	mid := lo + (hi-lo)/2
	emid := z.edge(mid << z.shift)
	z.fill(lo, mid, elo, emid)
	z.fill(mid, hi, emid, ehi)
}

// constant reports the rank every draw from lo up to hi maps to, if the
// argument on Zipfian proves there is one. NaN and infinite values fail the
// comparisons and prove nothing.
func (z *Zipfian) constant(lo, hi edge) (uint64, bool) {
	switch {
	case hi.uz < 1:
		return 0, true
	case lo.uz >= 1 && hi.uz < z.head2:
		return 1, true
	case lo.uz < z.head2: // straddles a head threshold
		return 0, false
	}
	j := math.Floor(lo.p)
	m := (j + 1) * guideMargin
	if lo.p-j >= m && hi.p-j >= m && j+1-lo.p >= m && j+1-hi.p >= m {
		return min(uint64(j), z.n-1), true
	}
	return 0, false
}

// N returns the population size.
func (z *Zipfian) N() uint64 { return z.n }

// Hash64 is the 64-bit finalizer from MurmurHash3: a cheap bijective mixer.
func Hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Hotspot draws from [0, n) where a fraction hotSetFrac of the items receives
// a fraction hotOpnFrac of the draws (e.g. the paper's Redis load: 0.01% of
// keys receive 90% of traffic). Within the hot and cold sets draws are
// uniform. The hot set is the index prefix; combine with a key scrambler if
// spatial clustering is undesirable.
type Hotspot struct {
	r          *PCG
	n          uint64
	hotN       uint64
	hotOpnFrac float64
}

// NewHotspot returns a hotspot distribution over [0, n).
func NewHotspot(r *PCG, n uint64, hotSetFrac, hotOpnFrac float64) *Hotspot {
	if n == 0 {
		panic("rng: NewHotspot(0)")
	}
	if hotSetFrac < 0 || hotSetFrac > 1 || hotOpnFrac < 0 || hotOpnFrac > 1 {
		panic("rng: hotspot fractions must be in [0, 1]")
	}
	hotN := uint64(float64(n) * hotSetFrac)
	if hotN == 0 {
		hotN = 1
	}
	return &Hotspot{r: r, n: n, hotN: hotN, hotOpnFrac: hotOpnFrac}
}

// Next returns the next item index.
func (h *Hotspot) Next() uint64 {
	if h.r.Float64() < h.hotOpnFrac {
		return h.r.Uint64n(h.hotN)
	}
	if h.hotN >= h.n {
		return h.r.Uint64n(h.n)
	}
	return h.hotN + h.r.Uint64n(h.n-h.hotN)
}

// N returns the population size.
func (h *Hotspot) N() uint64 { return h.n }
