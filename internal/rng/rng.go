// Package rng provides a small, fast, deterministic random-number generator
// and the key-popularity distributions the workload models need: uniform,
// Zipfian (YCSB-style, with the scrambled variant), and hotspot.
//
// The simulator needs determinism across runs for reproducible experiments,
// so every generator is seeded explicitly and never touches global state.
package rng

import "math/bits"

// PCG is a 64-bit PCG-XSH-RR random number generator. The zero value is not
// usable; construct with New.
type PCG struct {
	state uint64
	inc   uint64
}

const pcgMult = 6364136223846793005

// New returns a PCG seeded from seed, with a fixed stream.
func New(seed uint64) *PCG {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a PCG seeded from seed on the given stream. Distinct
// streams yield independent sequences even with equal seeds.
func NewStream(seed, stream uint64) *PCG {
	p := &PCG{inc: stream<<1 | 1}
	p.state = p.inc + seed
	p.Uint64()
	return p
}

// Uint64 returns the next 64 random bits: two 32-bit PCG outputs glued
// together. Both steps are written out so that the method inlines.
func (p *PCG) Uint64() uint64 {
	s0 := p.state
	s1 := s0*pcgMult + p.inc
	p.state = s1*pcgMult + p.inc
	return uint64(xshrr(s0))<<32 | uint64(xshrr(s1))
}

// xshrr is PCG's XSH-RR output permutation of a state.
func xshrr(s uint64) uint32 {
	return bits.RotateLeft32(uint32(((s>>18)^s)>>27), -int(s>>59))
}

// Uint64n returns a uniform value in [0, n). Panics if n == 0. It is modulo
// rejection, and finding the limit is a divide on every call; a caller
// drawing often from one n computes RejectLimit(n) once and calls Below.
func (p *PCG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	return p.Below(n, RejectLimit(n))
}

// RejectLimit returns the bound Uint64n(n) redraws at, the largest multiple
// of n that fits 64 bits, or 0 when n is a power of two (one masked draw).
func RejectLimit(n uint64) uint64 {
	if n&(n-1) == 0 {
		return 0
	}
	const mask = ^uint64(0)
	return mask - mask%n
}

// Below is Uint64n(n) for n > 0 given limit = RejectLimit(n): it consumes
// the generator exactly as Uint64n(n) does.
func (p *PCG) Below(n, limit uint64) uint64 {
	if limit == 0 {
		return p.Uint64() & (n - 1)
	}
	for {
		v := p.Uint64()
		if v < limit {
			return v % n
		}
	}
}

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(p.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (p *PCG) Float64() float64 { return unit(p.Uint64() >> 11) }

// unit maps a 53-bit integer k to k/2^53 in [0, 1), exactly.
func unit(k uint64) float64 { return float64(k) / (1 << 53) }

// Bool returns true with probability prob.
func (p *PCG) Bool(prob float64) bool {
	return p.Float64() < prob
}

// Sample returns k distinct uniform values from [0, n) in arbitrary order.
// If k >= n it returns all of [0, n). Uses Floyd's algorithm: O(k) expected.
func (p *PCG) Sample(n, k int) []int {
	if k >= n {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		v := p.Intn(j + 1)
		if _, dup := chosen[v]; dup {
			v = j
		}
		chosen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
