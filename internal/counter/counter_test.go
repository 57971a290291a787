package counter

import (
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

func newMachine(t *testing.T) (*sim.Machine, addr.Range) {
	t.Helper()
	cfg := sim.DefaultConfig(64<<20, 64<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 4
	// Tiny LLC so every access to a fresh page misses. 128 sets of 8 ways:
	// 64 sets of 16 cannot tag a two-tier physical map in 32 bits.
	cfg.LLC.SizeBytes, cfg.LLC.Ways = 64<<10, 8
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.AllocRegion(16<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	return m, r
}

func touchPages(t *testing.T, m *sim.Machine, r addr.Range, perPage int) {
	t.Helper()
	for v := r.Start; v < r.End; v += addr.Virt(addr.PageSize2M) {
		for i := 0; i < perPage; i++ {
			// Distinct lines so the tiny LLC misses every time.
			off := addr.Virt(uint64(i) * 64 * 67 % addr.PageSize2M)
			if _, err := m.Access(v+off, false); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestBadgerTrapBackend(t *testing.T) {
	m, r := newMachine(t)
	b := NewBadgerTrap(m)
	page := r.Start.Base2M()
	if err := b.Arm(page); err != nil {
		t.Fatal(err)
	}
	touchPages(t, m, addr.NewRange(page, addr.PageSize2M), 10)
	if b.Count(page) == 0 {
		t.Fatal("no events counted")
	}
	// BadgerTrap under-counts when the transient TLB entry is resident.
	if b.Count(page) > 10 {
		t.Fatalf("count %d exceeds true accesses", b.Count(page))
	}
	if err := b.Arm(addr.Virt(0xdead) << 30); err == nil {
		t.Fatal("arming unmapped page should fail")
	}
}

func TestCMBitExactCounting(t *testing.T) {
	m, r := newMachine(t)
	c := NewCMBit(m)
	page := r.Start.Base2M()
	other := page + addr.Virt(addr.PageSize2M)
	if err := c.Arm(page); err != nil {
		t.Fatal(err)
	}
	const n = 25
	touchPages(t, m, addr.NewRange(page, addr.PageSize2M), n)
	touchPages(t, m, addr.NewRange(other, addr.PageSize2M), n)
	// Every touch is an LLC miss (tiny cache, distinct lines), so the
	// CM-bit count is exact for the armed page and zero elsewhere.
	if got := c.Count(page); got != n {
		t.Fatalf("armed count = %d, want %d", got, n)
	}
	if got := c.Count(other); got != 0 {
		t.Fatalf("unarmed count = %d", got)
	}
}

func TestCMBitChargesSmallOverhead(t *testing.T) {
	m, r := newMachine(t)
	c := NewCMBit(m)
	page := r.Start.Base2M()
	if err := c.Arm(page); err != nil {
		t.Fatal(err)
	}
	lat, err := m.Access(page, false)
	if err != nil {
		t.Fatal(err)
	}
	// Overhead must be far below a BadgerTrap fault (1us) and present.
	if lat < CMBitOverheadNs || lat > 1000 {
		t.Fatalf("CM-bit miss latency = %d", lat)
	}
}

func TestCMBit4KGrain(t *testing.T) {
	m, r := newMachine(t)
	c := NewCMBit(m)
	if err := m.PageTable().Split(r.Start); err != nil {
		t.Fatal(err)
	}
	child := r.Start + 4096
	if err := c.Arm(child); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(child+64, false); err != nil {
		t.Fatal(err)
	}
	if c.Count(child) != 1 {
		t.Fatalf("4K-grain count = %d", c.Count(child))
	}
}

func TestPEBSSamplingAccuracy(t *testing.T) {
	m, r := newMachine(t)
	p := NewPEBS(m)
	page := r.Start.Base2M()
	if err := p.Arm(page); err != nil {
		t.Fatal(err)
	}
	const n = 10 * PEBSPeriod
	touchPages(t, m, addr.NewRange(page, addr.PageSize2M), n)
	got := p.Count(page)
	// Estimate = samples * period; with deterministic every-PEBSPeriod-th
	// sampling of a single armed page, the estimate is within one period
	// of truth.
	if got < n-PEBSPeriod || got > n+PEBSPeriod {
		t.Fatalf("PEBS estimate = %d, want ~%d", got, n)
	}
}

func TestPEBSMissesLowRatePages(t *testing.T) {
	m, r := newMachine(t)
	p := NewPEBS(m)
	cold := r.Start.Base2M()
	hot := cold + addr.Virt(addr.PageSize2M)
	if err := p.Arm(cold); err != nil {
		t.Fatal(err)
	}
	// 5 accesses to the cold page drowned in hot traffic: with a period
	// of 1000 the cold page is essentially never sampled — the §6.1.2
	// resolution limit.
	touchPages(t, m, addr.NewRange(cold, addr.PageSize2M), 5)
	touchPages(t, m, addr.NewRange(hot, addr.PageSize2M), 400)
	if got := p.Count(cold); got > PEBSPeriod {
		t.Fatalf("cold estimate = %d from 5 true accesses", got)
	}
}

func TestBackendsCompareOnSkew(t *testing.T) {
	// Head-to-head §6.1 accuracy check: drive identical traffic at two
	// pages (100 vs 10 accesses) and compare each backend's ratio
	// estimate. CM-bit must be exact; BadgerTrap must preserve ordering.
	runWith := func(mk func(m *sim.Machine) Backend) (hot, cold uint64) {
		cfg := sim.DefaultConfig(64<<20, 64<<20)
		cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 4
		cfg.LLC.SizeBytes, cfg.LLC.Ways = 64<<10, 8
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.AllocRegion(16<<20, true)
		if err != nil {
			t.Fatal(err)
		}
		b := mk(m)
		hotP := r.Start.Base2M()
		coldP := hotP + addr.Virt(addr.PageSize2M)
		if err := b.Arm(hotP); err != nil {
			t.Fatal(err)
		}
		if err := b.Arm(coldP); err != nil {
			t.Fatal(err)
		}
		// Interleave so TLB entries churn.
		for i := 0; i < 100; i++ {
			off := addr.Virt(uint64(i) * 64 * 67 % addr.PageSize2M)
			if _, err := m.Access(hotP+off, false); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				if _, err := m.Access(coldP+off, false); err != nil {
					t.Fatal(err)
				}
			}
			// Evict translations with unrelated traffic over six pages
			// (the working set exceeds both TLB levels).
			for e := 0; e < 6; e++ {
				ev := r.Start + addr.Virt(uint64(2+e)*addr.PageSize2M) + off
				if _, err := m.Access(ev, false); err != nil {
					t.Fatal(err)
				}
			}
		}
		return b.Count(hotP), b.Count(coldP)
	}

	hotCM, coldCM := runWith(func(m *sim.Machine) Backend { return NewCMBit(m) })
	if hotCM != 100 || coldCM != 10 {
		t.Fatalf("CM-bit counts %d/%d, want 100/10", hotCM, coldCM)
	}
	hotBT, coldBT := runWith(func(m *sim.Machine) Backend { return NewBadgerTrap(m) })
	if hotBT <= coldBT {
		t.Fatalf("BadgerTrap ordering lost: hot %d vs cold %d", hotBT, coldBT)
	}
	if hotBT > 100 {
		t.Fatalf("BadgerTrap hot count %d exceeds truth", hotBT)
	}
}

func TestTLBMissProxyValidForColdPages(t *testing.T) {
	// §3.3's validation: "for pages we identify as cold, the TLB miss rate
	// is typically higher (but always within a factor of two) of the
	// last-level cache miss rate". Reproduce: cold pages receive sparse
	// traffic; their BadgerTrap (TLB-miss) counts must track the
	// simulator's ground-truth LLC-miss counts within ~2x.
	cfg := sim.DefaultConfig(128<<20, 128<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnablePageCounts()
	r, err := m.AllocRegion(32<<20, true) // 16 huge pages
	if err != nil {
		t.Fatal(err)
	}
	// Demote the last 8 pages; they get ~5% of traffic.
	var coldPages []addr.Virt
	for i := 8; i < 16; i++ {
		base := r.Start + addr.Virt(uint64(i)*addr.PageSize2M)
		if _, err := m.Demote(base); err != nil {
			t.Fatal(err)
		}
		coldPages = append(coldPages, base)
	}
	rng1 := newRand()
	for i := 0; i < 300000; i++ {
		var page uint64
		if rng1.Bool(0.05) {
			page = 8 + rng1.Uint64n(8)
		} else {
			page = rng1.Uint64n(8)
		}
		v := r.Start + addr.Virt(page*addr.PageSize2M+rng1.Uint64n(addr.PageSize2M))
		if _, err := m.Access(v, false); err != nil {
			t.Fatal(err)
		}
	}
	truth := m.PageCounts()
	trap := m.Trap()
	for _, base := range coldPages {
		llcMisses := float64(truth[base])
		tlbMisses := float64(trap.Count(base))
		if llcMisses < 100 {
			t.Fatalf("cold page %s got too little traffic (%v) for the check", base, llcMisses)
		}
		ratio := tlbMisses / llcMisses
		if ratio < 0.4 || ratio > 2.5 {
			t.Errorf("page %s: TLB/LLC miss ratio = %.2f (tlb %v, llc %v), want ~[0.5, 2]",
				base, ratio, tlbMisses, llcMisses)
		}
	}
}

func newRand() *rng.PCG { return rng.New(99) }
