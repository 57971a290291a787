package main

import "time"

// The calibration kernel is the benchmark's unit of host time. Raw
// nanoseconds on this shared 2-core VM drift by tens of percent between
// adjacent 20 s windows (the block medians of one eight-minute probe of
// redis-walk ranged over 77 %), so host cost is reported as a ratio to a
// fixed kernel run interleaved with the measured code.
//
// What the kernel is made of was decided by measurement, not taste. Probes of
// four workloads against five candidate kernels showed that the disturbance
// on this host is mostly a neighbour on the sibling hardware thread: code
// bound by ALU throughput slows with it, code bound by a dependency chain or
// by memory barely notices. The simulator is a mix that changes by workload
// (the access path tracks an ALU-bound kernel almost 1:1, bigmem-scan's table
// splicing tracks it at a third), so the kernel is a mix too: a phase of four
// independent xorshift streams (throughput-bound), then a phase of one
// dependent xorshift chain doing a load and a store per iteration over a
// 64 KB table plus a small-map lookup every 64 iterations (latency-bound).
// At about 2:1 by time this had the lowest worst-case spread of the mixes
// tried (spread of 5 s block medians, as a share of their median: raw time
// 6-21 %, chain-only kernel 5-13 %, this mix 5-8 %). README.md has the table.
const (
	// One burst is calibALUIters + calibChainIters iterations, ≈ 1 ms here,
	// about two thirds of it in the first phase.
	calibALUIters   = 3 << 16
	calibChainIters = 1 << 17
	calibIters      = calibALUIters + calibChainIters
	// calibChecksum is what every burst must return once the table has
	// reached its steady state (one warm-up burst, run by init). A different
	// value means the kernel was miscompiled or edited, and every cost
	// computed from it would be in a different unit.
	calibChecksum = 0xff59681ad51332d8

	calibSlots = 8192 // × 8 B = 64 KB

	// calibRefNsPerIter is the kernel's speed on the undisturbed reference
	// host (this repository's 2-core 2.1 GHz Xeon VM). setup_s is reported in
	// seconds of that host: measured seconds × reference ÷ measured speed.
	calibRefNsPerIter = 2.9
)

var (
	calibTable [calibSlots]uint64
	calibMap   = make(map[uint32]uint32, 64)
)

func init() {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range calibTable {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calibTable[i] = x
	}
	for i := uint32(0); i < 64; i++ {
		calibMap[i] = i*2654435761 + 1
	}
	calibKernel()
}

// calibKernel runs one burst — both phases — and returns its checksum. Every
// burst replays the same xorshift sequences, and each table slot ends a burst
// holding the last value stored there, so from the second burst on the loads
// see the same values and the checksum repeats.
func calibKernel() uint64 {
	// Phase 1: four independent streams, bound by ALU throughput.
	a, b, c, d := uint64(0x2545f4914f6cdd1d), uint64(0x9e3779b97f4a7c15), uint64(0xd1342543de82ef95), uint64(0xaf251af3b0f025b5)
	for i := 0; i < calibALUIters; i++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}
	// Phase 2: one dependent chain that loads and stores through the table
	// and looks a key up in the map now and then, bound by latency.
	x := a ^ b ^ c ^ d
	var sum uint64
	for i := 0; i < calibChainIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		slot := &calibTable[x&(calibSlots-1)]
		sum += *slot
		*slot = x
		if i&63 == 0 {
			sum += uint64(calibMap[uint32(x>>40)&63])
		}
	}
	return sum + x
}

// calibrator times bursts of the kernel and keeps every sample.
type calibrator struct {
	// totalNs is the wall time spent in bursts so far; a caller that reads
	// it before and after a timed call learns how much of the call's wall
	// time was calibration (bursts fired from tick hooks).
	totalNs int64
	// nsPerIter holds one sample per burst since the last reset.
	nsPerIter []float64
	// badSums counts bursts whose checksum was not the pinned constant.
	badSums int
}

func (c *calibrator) burst() {
	t0 := time.Now()
	sum := calibKernel()
	ns := time.Since(t0).Nanoseconds()
	c.totalNs += ns
	c.nsPerIter = append(c.nsPerIter, float64(ns)/calibIters)
	if sum != calibChecksum {
		c.badSums++
	}
}

// take returns the samples since the last take and starts a new window.
func (c *calibrator) take() []float64 {
	s := c.nsPerIter
	c.nsPerIter = nil
	return s
}
