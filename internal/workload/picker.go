// Package workload models the paper's six cloud applications (§4.3,
// Table 2) as synthetic access-stream generators over the simulated address
// space. Each application is a set of memory segments — heap structures,
// page-cache file mappings, logs — with a traffic share and an
// intra-segment access distribution that reproduces the published hot/cold
// structure: Zipfian key popularity for the NoSQL stores, the 0.01%→90%
// hotspot for Redis plus its background sweep, the cold LINEITEM table for
// TPC-C, growing Memtables for Cassandra, and iterative scans for the
// in-memory analytics job.
package workload

import (
	"fmt"
	"slices"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
	"thermostat/internal/stats"
)

// Picker selects the next accessed address within a segment's regions.
// Pickers may keep state (e.g. sweep position); each segment owns one
// instance. The set is closed: the pickers of this package are all there
// is.
type Picker interface {
	// pick returns an address within s, drawing from r.
	pick(r *rng.PCG, s *span) addr.Virt
}

// binder is implemented by pickers that derive something from their span (a
// stride, a hot-set size, a sub-span) once, when it is built, instead of on
// every draw.
type binder interface {
	bind(s *span)
}

// span is a segment's regions as its picker reads them: the prefix sums
// that turn a page index into an address, the page count n, and the
// rejection limit for drawing below n. A segment builds it at Init and again
// when growth changes its regions; draws only read it.
type span struct {
	regions []addr.Range
	ends    []uint64 // ends[i]: 4KB pages in regions[:i+1]
	n       uint64
	limit   uint64 // rng.RejectLimit(n)
}

// newSpan builds the span of a non-empty region list.
func newSpan(regions []addr.Range) span {
	s := span{regions: regions, ends: make([]uint64, len(regions))}
	for i, reg := range regions {
		s.n += reg.Pages4K()
		s.ends[i] = s.n
	}
	s.limit = rng.RejectLimit(s.n)
	return s
}

// at returns an address in the idx-th 4KB page across the regions: the page
// base plus an offset drawn as r.Uint64n(PageSize4K) draws it (a power of
// two, so one masked draw).
func (s *span) at(r *rng.PCG, idx uint64) addr.Virt {
	i := 0
	if len(s.ends) > 1 {
		i, _ = slices.BinarySearch(s.ends, idx+1)
		if i > 0 {
			idx -= s.ends[i-1]
		}
	}
	return s.regions[i].Start.Base4K() + addr.Virt(idx*addr.PageSize4K) +
		addr.Virt(r.Uint64()&(addr.PageSize4K-1))
}

// Uniform picks uniformly over the segment's bytes (at 4KB-page grain with
// a random in-page offset).
type Uniform struct{}

func (Uniform) pick(r *rng.PCG, s *span) addr.Virt {
	return s.at(r, r.Below(s.n, s.limit))
}

// Zipf picks 4KB pages with scrambled-Zipfian popularity — the YCSB-style
// key skew with hot keys hashed across the space.
type Zipf struct {
	// Theta is the skew (default rng.YCSBTheta).
	Theta float64

	z *rng.Zipfian
}

func (p *Zipf) pick(r *rng.PCG, s *span) addr.Virt {
	if p.z == nil || p.z.N() != s.n {
		theta := p.Theta
		if theta == 0 {
			theta = rng.YCSBTheta
		}
		p.z = rng.NewScrambledZipfian(rng.NewStream(s.n, 0x5eed), s.n, theta)
	}
	return s.at(r, p.z.Next())
}

// Hotspot picks pages so that HotOpFrac of accesses go to the HotSetFrac
// hottest fraction of pages (the paper's Redis load: 0.01% of keys take 90%
// of traffic).
type Hotspot struct {
	HotSetFrac float64
	HotOpFrac  float64

	h *rng.Hotspot
}

func (p *Hotspot) pick(r *rng.PCG, s *span) addr.Virt {
	if p.h == nil || p.h.N() != s.n {
		p.h = rng.NewHotspot(rng.NewStream(s.n, 0x407), s.n, p.HotSetFrac, p.HotOpFrac)
	}
	return s.at(r, p.h.Next())
}

// Sweep cycles sequentially through the segment's pages, dwelling on each
// 4KB page for Dwell accesses before advancing — the background
// scan/expiry/compaction traffic that periodically revisits the entire
// footprint. Dwell preserves the real system's sweep period under footprint
// scaling (see DESIGN.md).
type Sweep struct {
	// Dwell is the number of accesses spent on each page (minimum 1).
	Dwell int

	pos   uint64
	count int
}

func (p *Sweep) pick(r *rng.PCG, s *span) addr.Virt {
	if p.pos >= s.n {
		p.pos = 0
	}
	v := s.at(r, p.pos)
	p.count++
	if p.count >= max(p.Dwell, 1) {
		p.count = 0
		p.pos++
		if p.pos >= s.n {
			p.pos = 0
		}
	}
	return v
}

// StridedScan iterates the segment's pages with a fixed page stride,
// wrapping around — the access shape of columnar/matrix scans (Spark's
// collaborative filtering iterates features across rating rows). Unlike
// Sweep it touches a different page on every access, so its traffic is
// visible to TLB-miss-based rate estimation at full fidelity.
type StridedScan struct {
	// Stride is the page step per access (default 97). The scan uses the
	// largest step no greater than Stride that is coprime with the page
	// count, so every page is visited once per n accesses.
	Stride uint64

	pos    uint64
	stride uint64
	n      stats.Divider // the bound span's page count
}

func (p *StridedScan) bind(s *span) {
	stride := p.Stride
	if stride == 0 {
		stride = 97
	}
	for stride > 1 && gcd(stride, s.n) != 1 {
		stride--
	}
	p.stride, p.n = stride, stats.NewDivider(s.n)
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *StridedScan) pick(r *rng.PCG, s *span) addr.Virt {
	_, p.pos = p.n.DivMod(p.pos + p.stride)
	return s.at(r, p.pos)
}

// Append writes sequentially like a log: it dwells on the last region's
// pages in order and wraps, modeling a circular log buffer.
type Append struct {
	// Dwell is the number of accesses per page before advancing.
	Dwell int

	sweep Sweep
	last  span // the most recent region: appending touches only it
}

func (p *Append) bind(s *span) { p.last = newSpan(s.regions[len(s.regions)-1:]) }

func (p *Append) pick(r *rng.PCG, _ *span) addr.Virt {
	p.sweep.Dwell = p.Dwell
	return p.sweep.pick(r, &p.last)
}

// HotspotSweep is the Redis traffic model: HotOpFrac of accesses hit a
// small hot key set (the paper's 0.01% of keys carrying 90% of traffic)
// whose pages are hash-scattered across the keyspace — as hot keys are in a
// real hash table — while the remainder sweeps cyclically through the whole
// footprint, modeling Redis's active-expiry and rehash passes. The scatter
// is what caps the movable fraction near 10%: most 2MB pages contain at
// least one hot key, and only the hot-key-free minority is safe to demote.
// The sweep is what defeats idle-bit placement: every page is eventually
// revisited at full speed.
type HotspotSweep struct {
	HotSetFrac float64
	HotOpFrac  float64
	// Dwell is the sweep's per-page access count (set to the footprint
	// scale divisor to preserve the real sweep period).
	Dwell int
	// RotatePeriodNs, when positive, re-scatters the hot key set every
	// period (simulated time): keys age out of popularity and fresh keys
	// become hot. This is what makes "idle for 10s" a dangerous placement
	// signal — a page with no hot keys today may hold tomorrow's.
	RotatePeriodNs int64

	salt       uint64
	nextRotate int64
	sweep      Sweep
	hot        uint64        // hot-set size for the bound span
	hotLimit   uint64        // rng.RejectLimit(hot)
	n          stats.Divider // the bound span's page count
}

// TickPicker implements pickerTicker: advances hot-set rotation.
func (p *HotspotSweep) TickPicker(nowNs int64) {
	if p.RotatePeriodNs <= 0 {
		return
	}
	if p.nextRotate == 0 {
		p.nextRotate = nowNs + p.RotatePeriodNs
		return
	}
	for nowNs >= p.nextRotate {
		p.salt = rng.Hash64(p.salt + 1)
		p.nextRotate += p.RotatePeriodNs
	}
}

// hotCount is the hot-set size over n pages (at least one page).
func (p *HotspotSweep) hotCount(n uint64) uint64 {
	return max(uint64(float64(n)*p.HotSetFrac), 1)
}

func (p *HotspotSweep) bind(s *span) {
	p.hot = p.hotCount(s.n)
	p.hotLimit = rng.RejectLimit(p.hot)
	p.n = stats.NewDivider(s.n)
}

func (p *HotspotSweep) pick(r *rng.PCG, s *span) addr.Virt {
	if r.Float64() < p.HotOpFrac {
		// Hash-scatter the hot set across the keyspace; the salt changes
		// on rotation, moving popularity to a fresh key set.
		_, idx := p.n.DivMod(rng.Hash64(r.Below(p.hot, p.hotLimit) + 0x9e3779b9 + p.salt))
		return s.at(r, idx)
	}
	p.sweep.Dwell = p.Dwell
	return p.sweep.pick(r, s)
}

// validatePicker panics early on nonsense configurations.
func validatePicker(p Picker, segName string) {
	switch v := p.(type) {
	case *Hotspot:
		if v.HotSetFrac <= 0 || v.HotSetFrac > 1 || v.HotOpFrac < 0 || v.HotOpFrac > 1 {
			panic(fmt.Sprintf("workload: segment %q hotspot fractions invalid", segName))
		}
	case *Zipf:
		// 0 is the default, rng.YCSBTheta; rng.NewZipfian takes (0, 1).
		if !(v.Theta >= 0 && v.Theta < 1) {
			panic(fmt.Sprintf("workload: segment %q Zipf theta %v not in [0, 1)", segName, v.Theta))
		}
	case nil:
		panic(fmt.Sprintf("workload: segment %q has no picker", segName))
	}
}
