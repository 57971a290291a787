package sim

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/telemetry"
)

// benchEpochMachine builds a machine with footprint bytes mapped as one
// contiguous huge-page region — the shape the epoch snapshot sweeps.
func benchEpochMachine(b *testing.B, footprint uint64) *Machine {
	b.Helper()
	cfg := DefaultConfig(footprint+64<<20, footprint+64<<20)
	cfg.Recorder = discard{}
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.AllocRegion(footprint, true); err != nil {
		b.Fatal(err)
	}
	return m
}

// discard is a Recorder that drops everything, so a benchmark times the
// epoch work and not the collector's buffering.
type discard struct{}

func (discard) Event(telemetry.Event)       {}
func (discard) Snapshot(telemetry.Snapshot) {}

// benchColdPolicy gives the tracker a cold set, turning the confusion
// matrix on — the epoch boundary's most expensive optional feature.
type benchColdPolicy struct{ NullPolicy }

func (benchColdPolicy) IsCold(addr.Virt) bool { return false }

// BenchmarkEpochSnapshot measures one epoch-boundary close (the snapshot
// sweep in epochTracker.end) over a 64 GB mapped footprint:
//
//   - dense: one visit per mapped 2MB leaf;
//   - dense-confusion: page counts enabled and a policy exposing a cold
//     set, so the per-2MB-page map is materialized — the O(pages) path,
//     only taken when the confusion matrix actually consumes it.
func BenchmarkEpochSnapshot(b *testing.B) {
	const footprint = 64 << 30
	cases := []struct {
		name      string
		confusion bool
	}{
		{"dense-64G", false},
		{"dense-64G-confusion", true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m := benchEpochMachine(b, footprint)
			var pol Policy
			if c.confusion {
				m.EnablePageCounts()
				pol = benchColdPolicy{}
			}
			tr := newEpochTracker(m, pol)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.end(int64(i + 1))
			}
		})
	}
}
