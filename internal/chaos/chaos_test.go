package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

func TestDisabledConfigYieldsNilInjector(t *testing.T) {
	t.Parallel()
	if in := New(Config{Seed: 1}); in != nil {
		t.Fatalf("zero-rate config must build a nil injector, got %+v", in)
	}
	if in := New(Config{Seed: 1, SiteRates: map[Site]float64{MigrateCopy: 0}}); in != nil {
		t.Fatalf("all-zero site rates must build a nil injector")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	t.Parallel()
	var in *Injector
	if f := in.Inject(MigrateCopy, 42); f != nil {
		t.Fatalf("nil injector injected %v", f)
	}
	if i := in.AbortIndex(512); i != 0 {
		t.Fatalf("nil injector AbortIndex = %d, want 0", i)
	}
	if r := in.Report(); r != (Report{}) {
		t.Fatalf("nil injector report = %+v, want zero", r)
	}
}

func TestZeroRateSiteConsumesNoDraws(t *testing.T) {
	t.Parallel()
	// Only MigrateCopy has a positive rate. Injecting at other sites any
	// number of times must not advance the rng stream: the MigrateCopy
	// decision sequence must be identical with and without the extra calls.
	cfg := Config{Seed: 7, SiteRates: map[Site]float64{MigrateCopy: 0.5}}
	a, b := New(cfg), New(cfg)
	var seqA, seqB []bool
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.Inject(MigrateCopy, int64(i)) != nil)
		for s := Site(0); s < NumSites; s++ {
			if s != MigrateCopy {
				if f := b.Inject(s, int64(i)); f != nil {
					t.Fatalf("zero-rate site %s injected", s)
				}
			}
		}
		seqB = append(seqB, b.Inject(MigrateCopy, int64(i)) != nil)
	}
	if !reflect.DeepEqual(seqA, seqB) {
		t.Fatalf("zero-rate sites perturbed the injection sequence")
	}
}

func TestInjectionDeterministic(t *testing.T) {
	t.Parallel()
	cfg := Config{Seed: 99, Rate: 0.3, PermanentFraction: 0.25}
	a, b := New(cfg), New(cfg)
	for i := 0; i < 500; i++ {
		site := Site(i % int(NumSites))
		fa, fb := a.Inject(site, int64(i)), b.Inject(site, int64(i))
		if (fa == nil) != (fb == nil) {
			t.Fatalf("step %d: injectors diverged", i)
		}
		if fa != nil && (fa.Permanent != fb.Permanent || fa.Site != fb.Site || fa.TimeNs != fb.TimeNs) {
			t.Fatalf("step %d: faults differ: %+v vs %+v", i, fa, fb)
		}
	}
	if a.Report() != b.Report() {
		t.Fatalf("reports diverged: %+v vs %+v", a.Report(), b.Report())
	}
	if a.Report() == (Report{}) {
		t.Fatalf("rate 0.3 over 500 draws injected nothing")
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	t.Parallel()
	in := New(Config{Seed: 3, Rate: 1})
	for i := 0; i < 50; i++ {
		f := in.Inject(DestFull, int64(i))
		if f == nil {
			t.Fatalf("rate-1 injector skipped at %d", i)
		}
		if f.TimeNs != int64(i) {
			t.Fatalf("fault time = %d, want %d", f.TimeNs, i)
		}
	}
	r := in.Report()
	if r.Injected != 50 || r.BySite[DestFull] != 50 {
		t.Fatalf("report = %+v, want 50 DestFull injections", r)
	}
}

func TestPermanentFractionBounds(t *testing.T) {
	t.Parallel()
	all := New(Config{Seed: 5, Rate: 1, PermanentFraction: 1})
	for i := 0; i < 20; i++ {
		if f := all.Inject(MigrateCopy, 0); !f.Permanent {
			t.Fatalf("PermanentFraction=1 produced a transient fault")
		}
	}
	none := New(Config{Seed: 5, Rate: 1})
	for i := 0; i < 20; i++ {
		if f := none.Inject(MigrateCopy, 0); f.Permanent {
			t.Fatalf("PermanentFraction=0 produced a permanent fault")
		}
	}
	// Poison sites are never permanent: they are retried by re-sampling.
	if f := all.Inject(PoisonArm, 0); f.Permanent {
		t.Fatalf("poison-arm fault marked permanent")
	}
}

func TestFaultErrorChain(t *testing.T) {
	t.Parallel()
	cause := errors.New("out of memory")
	f := &Fault{Site: DestFull, TimeNs: 10, Cause: cause}
	var err error = fmt.Errorf("numa: MoveHuge: %w", f)
	if !IsInjected(err) {
		t.Fatalf("IsInjected missed wrapped fault")
	}
	if !errors.Is(err, cause) {
		t.Fatalf("Cause not reachable via errors.Is")
	}
	got, ok := AsFault(err)
	if !ok || got.Site != DestFull {
		t.Fatalf("AsFault = %+v, %v", got, ok)
	}
	f.Permanent = true
	if got, _ := AsFault(err); !got.Permanent {
		t.Fatalf("permanent mark not reachable through the wrapped error")
	}
	if IsInjected(errors.New("plain")) {
		t.Fatalf("IsInjected on plain error")
	}
}

func TestSiteStrings(t *testing.T) {
	t.Parallel()
	want := map[Site]string{
		MigrateCopy:  "migrate-copy",
		DestFull:     "dest-full",
		TLBShootdown: "tlb-shootdown",
		PoisonArm:    "poison-arm",
		PoisonDisarm: "poison-disarm",
	}
	for s, w := range want {
		if s.String() != w {
			t.Fatalf("Site(%d).String() = %q, want %q", s, s.String(), w)
		}
	}
	if Site(99).String() != "site(99)" {
		t.Fatalf("unknown site string = %q", Site(99).String())
	}
}

func TestAbortIndexDeterministicAndBounded(t *testing.T) {
	t.Parallel()
	a, b := New(Config{Seed: 11, Rate: 1}), New(Config{Seed: 11, Rate: 1})
	for i := 0; i < 100; i++ {
		ia, ib := a.AbortIndex(512), b.AbortIndex(512)
		if ia != ib {
			t.Fatalf("AbortIndex diverged at %d: %d vs %d", i, ia, ib)
		}
		if ia < 0 || ia >= 512 {
			t.Fatalf("AbortIndex out of range: %d", ia)
		}
	}
	if a.AbortIndex(1) != 0 || a.AbortIndex(0) != 0 {
		t.Fatalf("degenerate AbortIndex not 0")
	}
}
