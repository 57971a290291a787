package core

import (
	"errors"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
)

// TestAttemptMoveUniformHandling exercises the shared retry/quarantine
// path that demote, promote, and sink all route through: plain OOM and
// injected faults get identical treatment.
func TestAttemptMoveUniformHandling(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 9)
	led := eng.led
	if err := eng.Attach(m); err != nil {
		t.Fatal(err)
	}
	base := addr.Virt(1 << 40)
	next := func() addr.Virt { base += addr.Virt(addr.PageSize2M); return base }

	// Plain OOM: retried to exhaustion with backoff, then quarantined —
	// never fatal, for demote and promote alike.
	calls := 0
	handled, err := led.attemptMove(base, func() error { calls++; return mem.ErrOutOfMemory })
	if !handled || err != nil {
		t.Fatalf("OOM exhaustion: handled=%v err=%v", handled, err)
	}
	if calls != defaultMaxAttempts {
		t.Errorf("OOM attempted %d times, want %d", calls, defaultMaxAttempts)
	}
	if !led.isQuarantined(base) {
		t.Error("exhausted page not quarantined")
	}

	// Transient injected fault: one retry, then success — no quarantine.
	transient := next()
	calls = 0
	handled, err = led.attemptMove(transient, func() error {
		calls++
		if calls == 1 {
			return &chaos.Fault{Site: chaos.MigrateCopy}
		}
		return nil
	})
	if handled || err != nil || calls != 2 {
		t.Fatalf("transient fault: handled=%v err=%v calls=%d", handled, err, calls)
	}
	if led.isQuarantined(transient) {
		t.Error("recovered page wrongly quarantined")
	}

	// Permanent injected fault: immediate quarantine, no further attempts.
	perm := next()
	calls = 0
	handled, err = led.attemptMove(perm, func() error {
		calls++
		return &chaos.Fault{Site: chaos.MigrateCopy, Permanent: true}
	})
	if !handled || err != nil || calls != 1 {
		t.Fatalf("permanent fault: handled=%v err=%v calls=%d", handled, err, calls)
	}
	if !led.isQuarantined(perm) {
		t.Error("permanently failed page not quarantined")
	}

	// Non-injected, non-OOM errors stay fatal: real bugs must not be
	// absorbed by the degradation machinery.
	boom := errors.New("boom")
	handled, err = led.attemptMove(next(), func() error { return boom })
	if handled || !errors.Is(err, boom) {
		t.Fatalf("fatal error swallowed: handled=%v err=%v", handled, err)
	}

	st := eng.Stats()
	if want := uint64(defaultMaxAttempts - 1 + 1); st.Retries != want {
		t.Errorf("Retries = %d, want %d", st.Retries, want)
	}
	if st.Quarantined != 2 {
		t.Errorf("Quarantined = %d, want 2", st.Quarantined)
	}
	rep := eng.FaultReport()
	if rep.Retried != st.Retries || rep.Quarantined != st.Quarantined {
		t.Errorf("FaultReport disagrees with Stats: %+v vs %+v", rep, st)
	}
}

// TestQuarantineExpires pins the lazy-expiry contract: a quarantined page
// is skipped for quarantinePeriods sampling periods and eligible again
// afterwards.
func TestQuarantineExpires(t *testing.T) {
	t.Parallel()
	m := testMachine(t)
	g := testGroup(t, nil)
	eng := NewEngine(g, 10)
	led := eng.led
	if err := eng.Attach(m); err != nil {
		t.Fatal(err)
	}
	base := addr.Virt(1 << 40)
	led.quarantine(base)
	if !led.isQuarantined(base) {
		t.Fatal("fresh quarantine not in effect")
	}
	if eng.QuarantinedPages() != 1 {
		t.Fatalf("QuarantinedPages = %d", eng.QuarantinedPages())
	}
	for i := uint64(0); i < defaultQuarantinePeriods; i++ {
		led.periods.Inc()
	}
	if led.isQuarantined(base) {
		t.Error("quarantine outlived its sentence")
	}
	if eng.QuarantinedPages() != 0 {
		t.Error("expired quarantine entry not reaped")
	}
}

// TestSqueezeSkipsQuarantinedPages pins the quarantine contract on the
// arbiter's path: with every migration copy failing permanently, a squeeze
// must attempt (and bench) only the candidates not already serving a
// sentence.
func TestSqueezeSkipsQuarantinedPages(t *testing.T) {
	t.Parallel()
	m, eng := failingCopyRun(t, "threshold")
	led := eng.led
	var benched, fresh uint64
	for _, est := range eng.LastEstimates() {
		switch {
		case eng.IsCold(est.Base):
		case led.isQuarantined(est.Base):
			benched++
		default:
			fresh++
		}
	}
	if benched == 0 || fresh == 0 {
		t.Fatalf("setup: want benched and fresh squeeze candidates, have %d and %d", benched, fresh)
	}
	before, attempts := eng.Stats().Quarantined, m.FaultReport().Injected
	freed, err := eng.Squeeze(64 << 20)
	if err != nil || freed != 0 {
		t.Fatalf("Squeeze = %d, %v; every copy fails, want 0, nil", freed, err)
	}
	if got := m.FaultReport().Injected - attempts; got != fresh {
		t.Errorf("squeeze attempted %d moves, want %d (benched pages are not attempted)", got, fresh)
	}
	if got := eng.Stats().Quarantined - before; got != fresh {
		t.Errorf("Quarantined grew by %d, want %d (one per newly failed page)", got, fresh)
	}
}

// TestStateBytesCountsQuarantine: a quarantine sentence is resident
// metadata. Under both policies, every page a squeeze benches adds 16 B to
// the policy's StateBytes.
func TestStateBytesCountsQuarantine(t *testing.T) {
	t.Parallel()
	for _, policy := range PolicyNames() {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			_, eng := failingCopyRun(t, policy)
			bytes, quar := eng.Policy().StateBytes(), eng.QuarantinedPages()
			if _, err := eng.Squeeze(64 << 20); err != nil {
				t.Fatal(err)
			}
			benched := eng.QuarantinedPages() - quar
			if benched <= 0 {
				t.Fatalf("setup: squeeze benched %d pages", benched)
			}
			if got, want := eng.Policy().StateBytes()-bytes, 16*uint64(benched); got != want {
				t.Errorf("StateBytes grew by %d B for %d new quarantine entries, want %d", got, benched, want)
			}
		})
	}
}

// failingCopyRun runs the skew app for one second under the poison tracker
// and the named policy, on a machine where every migration copy fails
// permanently: every placement attempt ends in quarantine.
func failingCopyRun(t *testing.T, policy string) (*sim.Machine, *Engine) {
	t.Helper()
	cfg := sim.DefaultConfig(256<<20, 256<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 8
	cfg.Chaos = chaos.Config{
		Seed:              1,
		SiteRates:         map[chaos.Site]float64{chaos.MigrateCopy: 1},
		PermanentFraction: 1,
	}
	m, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := ComposeByName(testGroup(t, nil), "poison", policy, 42)
	if err != nil {
		t.Fatal(err)
	}
	app := &skewApp{r: rng.New(1), size: 32 << 20, hotPages: 4}
	if _, err := sim.Run(m, app, eng, sim.RunConfig{DurationNs: 1e9}); err != nil {
		t.Fatal(err)
	}
	return m, eng
}
