package workload

import (
	"thermostat/internal/addr"
	"thermostat/internal/rng"
)

// Rotations reports how many weight swaps have occurred.
func (a *App) Rotations() int { return a.rotations }

// SegmentRegions exposes a segment's current regions by name (for tests and
// ground-truth analysis).
func (a *App) SegmentRegions(name string) []addr.Range {
	for _, seg := range a.segs {
		if seg.spec.Name == name {
			return append([]addr.Range(nil), seg.span.regions...)
		}
	}
	return nil
}

// HotPages returns the distinct hot 4KB page indices the picker currently
// draws from, given the region page count (ground truth for tests and
// analyses; reflects the current rotation salt).
func (p *HotspotSweep) HotPages(n uint64) map[uint64]bool {
	hot := p.hotCount(n)
	out := make(map[uint64]bool, hot)
	for i := uint64(0); i < hot; i++ {
		out[rng.Hash64(i+0x9e3779b9+p.salt)%n] = true
	}
	return out
}
