package mem

import (
	"strings"
	"testing"

	"thermostat/internal/addr"
)

func mustPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", substr)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, substr) {
			t.Fatalf("panic %v does not contain %q", r, substr)
		}
	}()
	f()
}

func TestNewHierarchy(t *testing.T) {
	specs := []Spec{
		DefaultDRAM(64 << 20),
		DefaultCXL(64 << 20),
		DefaultNVM(64 << 20),
	}
	s, err := NewHierarchy(specs...)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTiers() != 3 {
		t.Fatalf("NumTiers = %d, want 3", s.NumTiers())
	}
	if s.Bottom() != 2 {
		t.Fatalf("Bottom = %d, want 2", s.Bottom())
	}
	for i, want := range []string{"fast", "cxl", "nvm"} {
		if got := s.Tier(TierID(i)).Name(); got != want {
			t.Errorf("tier %d name = %q, want %q", i, got, want)
		}
	}
	// Each tier's allocator hands out frames inside its own address window.
	for i := 0; i < s.NumTiers(); i++ {
		p, err := s.Tier(TierID(i)).Alloc2M()
		if err != nil {
			t.Fatal(err)
		}
		if got := s.TierOf(p); got != TierID(i) {
			t.Errorf("tier %d allocated %s which TierOf maps to %d", i, p, got)
		}
	}
	// Top is the last byte of the bottom tier's window that has capacity.
	if got, want := s.Top(), addr.Phys(2<<TierShift+64<<20-1); got != want {
		t.Errorf("Top = %s, want %s", got, want)
	}
	if empty, _ := NewHierarchy(Spec{}); empty.Top() != 0 {
		t.Errorf("Top of a hierarchy without capacity = %s, want 0", empty.Top())
	}
	if _, err := NewHierarchy(); err == nil {
		t.Error("empty hierarchy accepted")
	}
	too := make([]Spec, MaxTiers+1)
	for i := range too {
		too[i] = DefaultSlow(2 << 20)
	}
	if _, err := NewHierarchy(too...); err == nil {
		t.Errorf("%d-tier hierarchy accepted beyond MaxTiers=%d", len(too), MaxTiers)
	}
}

func TestTierOfBounds(t *testing.T) {
	// Package-level TierOf tolerates any address inside the MaxTiers map...
	p := addr.Phys(uint64(MaxTiers-1) << TierShift)
	if got := TierOf(p); got != TierID(MaxTiers-1) {
		t.Fatalf("TierOf(%s) = %d", p, got)
	}
	// ...but panics beyond it: such an address is corrupt.
	mustPanic(t, "physical map", func() {
		TierOf(addr.Phys(uint64(MaxTiers) << TierShift))
	})

	s, err := NewHierarchy(DefaultDRAM(4<<20), DefaultSlow(4<<20))
	if err != nil {
		t.Fatal(err)
	}
	// System.TierOf additionally validates against the configured depth.
	mustPanic(t, "only 2 tiers are configured", func() {
		s.TierOf(addr.Phys(uint64(2) << TierShift))
	})
	mustPanic(t, "outside the configured 2-tier hierarchy", func() {
		s.Tier(TierID(5))
	})
	mustPanic(t, "outside the configured 2-tier hierarchy", func() {
		s.Tier(TierID(-1))
	})
	mustPanic(t, "outside [0, 8)", func() {
		newTier(TierID(MaxTiers), DefaultSlow(2<<20))
	})
}

func TestTierNames(t *testing.T) {
	// TierID renders by position only; building a named hierarchy does not
	// change what any TierID in the process prints.
	named, err := NewHierarchy(DefaultDRAM(2<<20), DefaultCXL(2<<20), DefaultNVM(2<<20))
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[TierID]string{Fast: "fast", Slow: "slow", 2: "tier2", 7: "tier7"} {
		if got := id.String(); got != want {
			t.Errorf("TierID(%d).String() = %q, want %q", int(id), got, want)
		}
	}
	// Device-class names come from the system that owns the tiers, so two
	// hierarchies in one process keep their own, whichever was built last.
	plain, err := NewHierarchy(Spec{Capacity: 2 << 20}, Spec{Capacity: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"fast", "cxl", "nvm"} {
		if got := named.Tier(TierID(i)).Name(); got != want {
			t.Errorf("named tier %d Name() = %q, want %q", i, got, want)
		}
	}
	// An unnamed spec keeps the tier's positional name.
	for i, want := range []string{"fast", "slow"} {
		if got := plain.Tier(TierID(i)).Name(); got != want {
			t.Errorf("unnamed tier %d Name() = %q, want %q", i, got, want)
		}
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		spec, ok := Preset(name, 32<<20)
		if !ok {
			t.Fatalf("Preset(%q) unknown", name)
		}
		if spec.Capacity != 32<<20 {
			t.Errorf("Preset(%q).Capacity = %d", name, spec.Capacity)
		}
		if spec.ReadLatency <= 0 || spec.Bandwidth <= 0 || spec.CostPerGB <= 0 {
			t.Errorf("Preset(%q) has unset fields: %+v", name, spec)
		}
	}
	if _, ok := Preset("hbm", 1<<20); ok {
		t.Error("unknown preset resolved")
	}
	// The hierarchy must get cheaper going down: that ordering is what the
	// savings model depends on.
	dram, _ := Preset("dram", 1<<30)
	cxl, _ := Preset("cxl", 1<<30)
	nvm, _ := Preset("nvm", 1<<30)
	if !(dram.CostPerGB > cxl.CostPerGB && cxl.CostPerGB > nvm.CostPerGB) {
		t.Errorf("preset costs not descending: %v %v %v", dram.CostPerGB, cxl.CostPerGB, nvm.CostPerGB)
	}
	if !(dram.ReadLatency < cxl.ReadLatency && cxl.ReadLatency < nvm.ReadLatency) {
		t.Errorf("preset latencies not ascending: %v %v %v", dram.ReadLatency, cxl.ReadLatency, nvm.ReadLatency)
	}
}

func TestMeterPairs(t *testing.T) {
	m := NewMeter(0)
	m.RecordPair(Demotion, 0, 1, addr.PageSize2M)
	m.RecordPair(Demotion, 1, 2, addr.PageSize2M)
	m.RecordPair(Demotion, 1, 2, addr.PageSize4K)
	m.RecordPair(Promotion, 2, 0, addr.PageSize2M)

	// Legacy per-kind aggregates still see everything.
	if m.Bytes(Demotion) != 2*addr.PageSize2M+addr.PageSize4K {
		t.Fatalf("aggregate demotion bytes = %d", m.Bytes(Demotion))
	}

	pt := m.PairTraffic(1, 2)
	if pt.Bytes != addr.PageSize2M+addr.PageSize4K || pt.Pages2M != 1 || pt.Pages4K != 1 {
		t.Fatalf("PairTraffic(1,2) = %+v", pt)
	}
	if z := m.PairTraffic(0, 2); z.Bytes != 0 {
		t.Fatalf("untouched pair has traffic: %+v", z)
	}

	pairs := m.Pairs()
	want := []tierPair{{0, 1}, {1, 2}, {2, 0}}
	if len(pairs) != len(want) {
		t.Fatalf("Pairs() = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("Pairs()[%d] = %v, want %v", i, pairs[i], want[i])
		}
	}

	// 2MB+4K over one virtual second across pair (1,2).
	rate := m.PairRateMBps(1, 2, 1e9)
	if rate < 2.0 || rate > 2.2 {
		t.Fatalf("PairRateMBps = %v", rate)
	}
}
