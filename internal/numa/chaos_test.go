package numa

import (
	"errors"
	"reflect"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
)

// sysState is everything a failed migration must leave untouched: every leaf
// mapping with its exact flag word (page data is modeled by the frame
// identity, poison state by the Poisoned flag), per-tier occupancy, and
// metered traffic.
type sysState struct {
	Leaves   []leafSnap
	Used     []uint64
	Free     []uint64
	Demotion uint64
	Promote  uint64
}

type leafSnap struct {
	Base  addr.Virt
	Entry pagetable.Entry
	Level pagetable.Level
}

func captureState(f *fixture) sysState {
	var st sysState
	f.pt.Scan(func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		st.Leaves = append(st.Leaves, leafSnap{Base: base, Entry: e.Entry(), Level: lvl})
	})
	for i := 0; i < f.sys.NumTiers(); i++ {
		st.Used = append(st.Used, f.sys.Tier(mem.TierID(i)).Used())
		st.Free = append(st.Free, f.sys.Tier(mem.TierID(i)).Free())
	}
	st.Demotion = f.mig.Meter().Bytes(mem.Demotion)
	st.Promote = f.mig.Meter().Bytes(mem.Promotion)
	return st
}

// shape is the page-size/mapping variant under test.
type shape int

const (
	shapeHuge   shape = iota // single 2MB leaf, MoveHuge
	shapeSplit               // 512 split 4KB children over one 2MB frame, MoveHuge
	shapeNative              // natively-allocated 4KB page, Move4K
)

func (s shape) String() string {
	switch s {
	case shapeHuge:
		return "huge"
	case shapeSplit:
		return "split"
	default:
		return "native4k"
	}
}

// prepare maps one region of the given shape in tier src, with a spread of
// flag states (dirty/accessed, scattered poison on split children) so a lossy
// rollback would be visible in the snapshot diff.
func prepare(t *testing.T, f *fixture, s shape, src mem.TierID) addr.Virt {
	t.Helper()
	switch s {
	case shapeHuge:
		v := addr.Virt2M(7)
		f.mapHuge(t, v, src)
		f.pt.SetFlags(v, pagetable.Accessed|pagetable.Dirty)
		return v
	case shapeSplit:
		v := addr.Virt2M(9)
		f.mapHuge(t, v, src)
		if err := f.pt.Split(v); err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{0, 3, 511} {
			f.pt.SetFlags(v+addr.Virt(uint64(c)*addr.PageSize4K), pagetable.Poisoned)
		}
		f.pt.SetFlags(v+addr.Virt(5*addr.PageSize4K), pagetable.Accessed|pagetable.Dirty)
		return v
	default:
		v := addr.Virt(0x40000000)
		p, err := f.sys.Tier(src).Alloc4K()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.pt.Map4K(v, p, pagetable.Writable|pagetable.Dirty); err != nil {
			t.Fatal(err)
		}
		return v
	}
}

func (f *fixture) move(v addr.Virt, s shape, dst mem.TierID) error {
	var err error
	if s == shapeNative {
		_, err = f.mig.Move4K(v, dst, 1, mem.Demotion)
	} else {
		_, err = f.mig.MoveHuge(v, dst, 1, mem.Demotion)
	}
	return err
}

// TestRollbackProperty: for every ordered tier pair of a four-tier hierarchy,
// every page shape, and every migration fault site, an injected failure must
// leave the system reflect.DeepEqual-identical to its pre-move snapshot —
// page mappings, PTE flag words (incl. poison), tier occupancy, and metered
// traffic. For the split shape the mid-copy abort index is randomized across
// seeds so rollback is exercised at several partial-copy depths.
func TestRollbackProperty(t *testing.T) {
	t.Parallel()
	sites := []chaos.Site{chaos.DestFull, chaos.MigrateCopy, chaos.TLBShootdown}
	for _, s := range []shape{shapeHuge, shapeSplit, shapeNative} {
		for _, site := range sites {
			seeds := []uint64{1}
			if s == shapeSplit && site == chaos.MigrateCopy {
				// Vary the deterministic abort index: early, middle, late.
				seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
			}
			for _, seed := range seeds {
				f := fourTierFixture(t)
				n := f.sys.NumTiers()
				for srcI := 0; srcI < n; srcI++ {
					for dstI := 0; dstI < n; dstI++ {
						if srcI == dstI {
							continue
						}
						src, dst := mem.TierID(srcI), mem.TierID(dstI)
						f := fourTierFixture(t)
						v := prepare(t, f, s, src)
						before := captureState(f)

						inj := chaos.New(chaos.Config{
							Seed:      seed,
							SiteRates: map[chaos.Site]float64{site: 1},
						})
						f.mig.SetInjector(inj, func() int64 { return 12345 })

						err := f.move(v, s, dst)
						if err == nil {
							t.Fatalf("%s %d->%d site=%s: move succeeded despite forced fault", s, src, dst, site)
						}
						if !chaos.IsInjected(err) {
							t.Fatalf("%s %d->%d site=%s: error not injected: %v", s, src, dst, site, err)
						}
						if site == chaos.DestFull && !errors.Is(err, mem.ErrOutOfMemory) {
							t.Fatalf("dest-full fault does not unwrap to ErrOutOfMemory: %v", err)
						}

						after := captureState(f)
						if !reflect.DeepEqual(before, after) {
							t.Fatalf("%s %d->%d site=%s seed=%d: state diverged after rollback\nbefore: %+v\nafter:  %+v",
								s, src, dst, site, seed, before, after)
						}
						if site != chaos.DestFull && f.mig.Rollbacks() == 0 {
							t.Fatalf("%s %d->%d site=%s: rollback not counted", s, src, dst, site)
						}

						// The transaction must be repeatable: with the
						// injector removed the same move commits cleanly.
						f.mig.SetInjector(nil, nil)
						if err := f.move(v, s, dst); err != nil {
							t.Fatalf("%s %d->%d: move after rollback failed: %v", s, src, dst, err)
						}
						if got, err := f.mig.TierOfPage(v); err != nil || got != dst {
							t.Fatalf("%s %d->%d: page in tier %v after commit (err=%v)", s, src, dst, got, err)
						}
					}
				}
			}
		}
	}
}

// TestRollbackSplitAbortDepths pins that the randomized seeds above actually
// hit distinct abort indices, including a partial copy (0 < failAt), so the
// reverse-order undo path is genuinely exercised and not just the
// nothing-copied-yet case.
func TestRollbackSplitAbortDepths(t *testing.T) {
	t.Parallel()
	depths := map[int]bool{}
	for seed := uint64(1); seed <= 8; seed++ {
		inj := chaos.New(chaos.Config{Seed: seed, SiteRates: map[chaos.Site]float64{chaos.MigrateCopy: 1}})
		if inj.Inject(chaos.MigrateCopy, 0) == nil {
			t.Fatal("forced site did not fire")
		}
		depths[inj.AbortIndex(addr.PagesPerHuge)] = true
	}
	if len(depths) < 3 {
		t.Fatalf("abort indices not diverse across seeds: %v", depths)
	}
	nonzero := false
	for d := range depths {
		if d > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatalf("no partial-copy abort depth exercised: %v", depths)
	}
}

// TestRollbackTransientThenCommit drives a two-tier demote through a
// transient mid-copy fault at rate 0.5 until both outcomes have been seen,
// checking the migrator stays consistent across interleaved failures and
// commits on the same region.
func TestRollbackTransientThenCommit(t *testing.T) {
	t.Parallel()
	f := newFixture(t)
	v := addr.Virt2M(2)
	f.mapHuge(t, v, mem.Fast)
	if err := f.pt.Split(v); err != nil {
		t.Fatal(err)
	}
	f.pt.SetFlags(v+addr.Virt(8*addr.PageSize4K), pagetable.Poisoned)
	inj := chaos.New(chaos.Config{Seed: 42, SiteRates: map[chaos.Site]float64{chaos.MigrateCopy: 0.5}})
	f.mig.SetInjector(inj, func() int64 { return 0 })

	failures := 0
	dst := mem.Slow
	cur := mem.Fast
	for i := 0; i < 64; i++ {
		if err := f.move(v, shapeSplit, dst); err != nil {
			if !chaos.IsInjected(err) {
				t.Fatalf("unexpected error: %v", err)
			}
			failures++
			continue
		}
		cur, dst = dst, cur
		// Poison must survive both rollbacks and commits.
		e, _, ok := f.pt.Lookup(v + addr.Virt(8*addr.PageSize4K))
		if !ok || !e.Flags.Has(pagetable.Poisoned) {
			t.Fatalf("iteration %d: poison lost (ok=%v flags=%v)", i, ok, e.Flags)
		}
	}
	if failures == 0 {
		t.Fatal("rate-0.5 injector never fired in 64 moves")
	}
	if f.mig.Rollbacks() != uint64(failures) {
		t.Fatalf("rollbacks = %d, failures = %d", f.mig.Rollbacks(), failures)
	}
	used := f.sys.Tier(mem.Fast).Used() + f.sys.Tier(mem.Slow).Used()
	if used != addr.PageSize2M {
		t.Fatalf("occupancy leaked: total used = %d, want one 2MB frame", used)
	}
}
