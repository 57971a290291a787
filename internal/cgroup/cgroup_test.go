package cgroup

import (
	"math"
	"sync"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTargetSlowAccessRateMatchesPaper(t *testing.T) {
	// "For a 3% tolerable slowdown and 1us slow memory access latency, the
	// target slow memory access rate is 30K accesses/sec." (Figure 3)
	got := Default().TargetSlowAccessRate()
	if math.Abs(got-30000) > 1e-6 {
		t.Fatalf("target rate = %v, want 30000", got)
	}
	// 10% at 1us -> 100K/s.
	p := Default()
	p.TolerableSlowdownPct = 10
	if got := p.TargetSlowAccessRate(); math.Abs(got-100000) > 1e-6 {
		t.Fatalf("10%% target rate = %v, want 100000", got)
	}
	// 3% at 2us -> 15K/s (slower memory halves the budget).
	p = Default()
	p.SlowMemLatencyNs = 2000
	if got := p.TargetSlowAccessRate(); math.Abs(got-15000) > 1e-6 {
		t.Fatalf("2us target rate = %v, want 15000", got)
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Params){
		func(p *Params) { p.TolerableSlowdownPct = 0 },
		func(p *Params) { p.TolerableSlowdownPct = 100 },
		func(p *Params) { p.SamplePeriodNs = 0 },
		func(p *Params) { p.SampleFraction = 0 },
		func(p *Params) { p.SampleFraction = 1.5 },
		func(p *Params) { p.MaxPoisonPerHuge = 0 },
		func(p *Params) { p.SlowMemLatencyNs = -1 },
	}
	for i, mutate := range bad {
		p := Default()
		mutate(&p)
		if err := p.validate(); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestGroupLifecycle(t *testing.T) {
	g, err := NewGroup("benchmarks", Default())
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "benchmarks" {
		t.Fatal("name lost")
	}
	if _, err := NewGroup("bad", Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	// Runtime retuning.
	if err := g.SetTolerableSlowdown(6); err != nil {
		t.Fatal(err)
	}
	if g.Params().TolerableSlowdownPct != 6 {
		t.Fatal("retune not visible")
	}
	if err := g.SetTolerableSlowdown(-1); err == nil {
		t.Fatal("invalid retune accepted")
	}
	if g.Params().TolerableSlowdownPct != 6 {
		t.Fatal("failed retune mutated params")
	}
	p := g.Params()
	p.SampleFraction = 0.2
	if err := g.Update(p); err != nil {
		t.Fatal(err)
	}
	if g.Params().SampleFraction != 0.2 {
		t.Fatal("Update not visible")
	}
}

func TestGroupConcurrentAccess(t *testing.T) {
	g, err := NewGroup("c", Default())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = g.SetTolerableSlowdown(3 + float64(j%5))
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p := g.Params()
				if p.TolerableSlowdownPct < 3 || p.TolerableSlowdownPct > 7 {
					t.Errorf("torn read: %v", p.TolerableSlowdownPct)
					return
				}
			}
		}()
	}
	wg.Wait()
}
