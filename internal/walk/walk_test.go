package walk

import (
	"testing"
	"testing/quick"
)

func TestNativeAccesses(t *testing.T) {
	if got := accesses(false, Depth4K, 0); got != 4 {
		t.Errorf("native 4K = %d, want 4", got)
	}
	if got := accesses(false, Depth2M, 0); got != 3 {
		t.Errorf("native 2M = %d, want 3", got)
	}
}

func TestNestedAccessesMatchPaper(t *testing.T) {
	// Section 2.2: "the cost of a page walk can be as high as 24 memory
	// accesses. When memory is mapped to a 2MB huge page in both the guest
	// and host, the worst-case page walk is reduced to 15 accesses."
	if got := accesses(true, Depth4K, Depth4K); got != 24 {
		t.Errorf("nested 4K/4K = %d, want 24", got)
	}
	if got := accesses(true, Depth2M, Depth2M); got != 15 {
		t.Errorf("nested 2M/2M = %d, want 15", got)
	}
	// Mixed configurations fall between.
	if got := accesses(true, Depth2M, Depth4K); got != 19 {
		t.Errorf("nested 2M guest/4K host = %d, want 19", got)
	}
	if got := accesses(true, Depth4K, Depth2M); got != 19 {
		t.Errorf("nested 4K guest/2M host = %d, want 19", got)
	}
}

func TestAccessesPanicsOnBadDepth(t *testing.T) {
	for _, fn := range []func(){
		func() { accesses(false, 0, 4) },
		func() { accesses(true, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for bad depth")
				}
			}()
			fn()
		}()
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(Config{CachedStepLatency: 5, MemStepLatency: 80, CacheHitRatio: 1.5}); err == nil {
		t.Error("bad hit ratio accepted")
	}
	if _, err := NewModel(Config{CachedStepLatency: 5, MemStepLatency: 0, CacheHitRatio: 0.5}); err == nil {
		t.Error("zero mem latency accepted")
	}
	if _, err := NewModel(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestLatencyOrdering(t *testing.T) {
	m, err := NewModel(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	native4K := m.Latency(false, Depth4K, 0)
	native2M := m.Latency(false, Depth2M, 0)
	nested4K := m.Latency(true, Depth4K, Depth4K)
	nested2M := m.Latency(true, Depth2M, Depth2M)
	if !(native2M < native4K && native4K < nested2M && nested2M < nested4K) {
		t.Fatalf("latency ordering violated: %d %d %d %d",
			native2M, native4K, nested2M, nested4K)
	}
	// The nested 4K/4K : 2M/2M ratio should be 24:15.
	if ratio := float64(nested4K) / float64(nested2M); ratio < 1.5 || ratio > 1.7 {
		t.Fatalf("nested ratio = %v, want ~1.6", ratio)
	}
}

func TestStepLatencyBlend(t *testing.T) {
	m, _ := NewModel(Config{CachedStepLatency: 10, MemStepLatency: 100, CacheHitRatio: 0.5})
	if got := m.stepLatency(); got != 55 {
		t.Fatalf("StepLatency = %v, want 55", got)
	}
	// Degenerate ratios.
	m0, _ := NewModel(Config{CachedStepLatency: 10, MemStepLatency: 100, CacheHitRatio: 0})
	if m0.stepLatency() != 100 {
		t.Fatal("ratio 0 should give pure memory latency")
	}
	m1, _ := NewModel(Config{CachedStepLatency: 10, MemStepLatency: 100, CacheHitRatio: 1})
	if m1.stepLatency() != 10 {
		t.Fatal("ratio 1 should give pure cache latency")
	}
}

// Property: nested walks always cost more than native at the same guest
// depth, and access counts are monotone in both depths.
func TestAccessMonotonicityProperty(t *testing.T) {
	f := func(gRaw, hRaw uint8) bool {
		g := int(gRaw%4) + 1
		h := int(hRaw%4) + 1
		n := accesses(true, g, h)
		if n <= accesses(false, g, 0) {
			return false
		}
		if g < 4 && accesses(true, g+1, h) <= n {
			return false
		}
		if h < 4 && accesses(true, g, h+1) <= n {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
