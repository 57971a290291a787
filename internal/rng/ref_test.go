package rng

import "math"

// The Zipfian sampler this package shipped before the guide table, kept as
// the differential oracle for TestZipfianMatchesPowReference and
// FuzzZipfianVsPow: two math.Pow calls per draw, no table. Only the type
// name changed, and Next's first line became draw's parameter so a test can
// feed it a chosen draw.

type refZipfian struct {
	r     *PCG
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// newRefZipfian mirrors z on the generator r. zeta is shared, unchanged code
// and costs up to 2^20 Pow calls, so its two sums are taken from z.
func newRefZipfian(r *PCG, z *Zipfian) *refZipfian {
	ref := &refZipfian{r: r, n: z.n, theta: z.theta, zetan: z.zetan, zeta2: z.zeta2}
	ref.alpha = 1 / (1 - ref.theta)
	ref.eta = (1 - math.Pow(2/float64(ref.n), 1-ref.theta)) / (1 - ref.zeta2/ref.zetan)
	return ref
}

func (z *refZipfian) Next() uint64 { return z.draw(z.r.Float64()) }

func (z *refZipfian) draw(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	v := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if v >= z.n {
		v = z.n - 1
	}
	return v
}

// refGuide is the guide table as the sampler classified it before it was
// built by bisection: each bucket on its own, from its first and last draw,
// two Pow calls per bucket past the head, at z's own bucket width. It is the
// oracle of TestZipfianBisectionMatchesPerBucket.
func refGuide(z *Zipfian) []uint32 {
	guide := make([]uint32, len(z.guide))
	for b := range guide {
		first, last := bucketDraws(z, uint64(b))
		if v, ok := refConstant(z, unit(first), unit(last)); ok {
			guide[b] = guideConst + uint32(refItem(z, v))
		}
	}
	return guide
}

// refConstant reports the rank every draw in [lo, hi] maps to, if the
// argument on Zipfian proves there is one.
func refConstant(z *Zipfian, lo, hi float64) (uint64, bool) {
	switch {
	case hi*z.zetan < 1:
		return 0, true
	case lo*z.zetan >= 1 && hi*z.zetan < z.head2:
		return 1, true
	case lo*z.zetan < z.head2: // straddles a head threshold
		return 0, false
	}
	plo, phi := z.tail(lo), z.tail(hi)
	j := math.Floor(plo)
	m := (j + 1) * guideMargin
	if plo-j >= m && phi-j >= m && j+1-plo >= m && j+1-phi >= m {
		return min(uint64(j), z.n-1), true
	}
	return 0, false
}
