package mem

import (
	"sort"

	"thermostat/internal/stats"
)

// TrafficKind labels why bytes moved between tiers, so the harness can
// report the paper's Table 3 split (migration vs. false-classification).
type TrafficKind int

// Traffic categories.
const (
	// Demotion is cold data moving down the hierarchy (planned placement).
	Demotion TrafficKind = iota
	// Promotion is data moving up the hierarchy after a mis-classification
	// or working-set change was detected.
	Promotion
	nTrafficKinds
)

// String names the traffic kind.
func (k TrafficKind) String() string {
	switch k {
	case Demotion:
		return "demotion"
	case Promotion:
		return "promotion"
	default:
		return "unknown"
	}
}

// tierPair is one ordered (source, destination) tier pair of the migration
// traffic matrix.
type tierPair struct {
	Src, Dst TierID
}

// pairTraffic is the accumulated movement over one tier pair.
type pairTraffic struct {
	Bytes   uint64
	Pages2M uint64
	Pages4K uint64
}

type pairCounters struct {
	bytes   stats.Counter
	pages2M stats.Counter
	pages4K stats.Counter
}

// Meter accumulates inter-tier traffic by kind and by (src, dst) tier pair.
// The simulator's virtual clock supplies timestamps; rates are over virtual
// time.
type Meter struct {
	bytes   [nTrafficKinds]stats.Counter
	pages4K [nTrafficKinds]stats.Counter
	pages2M [nTrafficKinds]stats.Counter
	pairs   map[tierPair]*pairCounters
	startNs int64
}

// NewMeter returns a meter whose rate window starts at startNs.
func NewMeter(startNs int64) *Meter {
	return &Meter{startNs: startNs, pairs: make(map[tierPair]*pairCounters)}
}

// RecordPair accounts one page movement of the given kind and size over the
// (src, dst) tier pair.
func (m *Meter) RecordPair(kind TrafficKind, src, dst TierID, bytes uint64) {
	key := tierPair{Src: src, Dst: dst}
	pc, ok := m.pairs[key]
	if !ok {
		pc = &pairCounters{}
		m.pairs[key] = pc
	}
	m.bytes[kind].Add(bytes)
	pc.bytes.Add(bytes)
	if bytes >= 2<<20 {
		m.pages2M[kind].Add(bytes / (2 << 20))
		pc.pages2M.Add(bytes / (2 << 20))
	} else {
		m.pages4K[kind].Add(bytes / 4096)
		pc.pages4K.Add(bytes / 4096)
	}
}

// Bytes returns the total bytes moved for the kind.
func (m *Meter) Bytes(kind TrafficKind) uint64 { return m.bytes[kind].Value() }

// TotalBytes returns all bytes moved.
func (m *Meter) TotalBytes() uint64 {
	var sum uint64
	for k := TrafficKind(0); k < nTrafficKinds; k++ {
		sum += m.bytes[k].Value()
	}
	return sum
}

// RateMBps returns the kind's average rate in MB/s over virtual time
// [startNs, nowNs].
func (m *Meter) RateMBps(kind TrafficKind, nowNs int64) float64 {
	return stats.Rate(m.bytes[kind].Value(), nowNs-m.startNs) / 1e6
}

// Pages2M returns the number of 2MB page moves of the kind.
func (m *Meter) Pages2M(kind TrafficKind) uint64 { return m.pages2M[kind].Value() }

// Pages4K returns the number of 4KB page moves of the kind.
func (m *Meter) Pages4K(kind TrafficKind) uint64 { return m.pages4K[kind].Value() }

// Pairs returns every tier pair with recorded traffic, ordered by (src,
// dst) so reports render deterministically.
func (m *Meter) Pairs() []tierPair {
	out := make([]tierPair, 0, len(m.pairs))
	for k := range m.pairs {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// PairTraffic returns the accumulated movement over the (src, dst) pair.
func (m *Meter) PairTraffic(src, dst TierID) pairTraffic {
	pc, ok := m.pairs[tierPair{Src: src, Dst: dst}]
	if !ok {
		return pairTraffic{}
	}
	return pairTraffic{
		Bytes:   pc.bytes.Value(),
		Pages2M: pc.pages2M.Value(),
		Pages4K: pc.pages4K.Value(),
	}
}

// PairRateMBps returns the (src, dst) pair's average rate in MB/s over
// virtual time [startNs, nowNs].
func (m *Meter) PairRateMBps(src, dst TierID, nowNs int64) float64 {
	pc, ok := m.pairs[tierPair{Src: src, Dst: dst}]
	if !ok {
		return 0
	}
	return stats.Rate(pc.bytes.Value(), nowNs-m.startNs) / 1e6
}
