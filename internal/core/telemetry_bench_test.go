package core

import (
	"testing"

	"thermostat/internal/cgroup"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// benchLoop drives the engine hot loop (access + periodic tick) on m for b.N
// operations — the path whose cost the telemetry layer must not perturb when
// disabled.
func benchLoop(b *testing.B, m *sim.Machine) {
	b.Helper()
	p := cgroup.Default()
	p.SamplePeriodNs = 100e6
	p.SampleFraction = 0.25
	g, err := cgroup.NewGroup("bench", p)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(g, 42)
	app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}
	if err := app.Init(m); err != nil {
		b.Fatal(err)
	}
	if err := eng.Attach(m); err != nil {
		b.Fatal(err)
	}
	next := m.Clock() + eng.IntervalNs()
	var req [1]sim.Req
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.NextBatch(req[:])
		if _, err := m.Access(req[0].V, req[0].Write); err != nil {
			b.Fatal(err)
		}
		m.AdvanceClock(app.ComputeNs())
		if now := m.Clock(); now >= next {
			if err := eng.Tick(m, now); err != nil {
				b.Fatal(err)
			}
			next += eng.IntervalNs()
		}
	}
}

// BenchmarkEngineTelemetryOff measures the engine+machine hot loop with no
// recorder installed (the default). What an attached recorder adds is the
// repository benchmark's telemetry.* rows (see bench/README.md).
func BenchmarkEngineTelemetryOff(b *testing.B) {
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	m, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchLoop(b, m)
}
