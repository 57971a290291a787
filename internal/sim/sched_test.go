package sim

import (
	"testing"

	"thermostat/internal/rng"
)

// TestBlockDoesNotAllocate: once the LLC and TLB are warm, a four-member
// Block allocates nothing, and neither does a Leave or a Join between
// blocks.
func TestBlockDoesNotAllocate(t *testing.T) {
	m, err := New(DefaultConfig(64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	// No window or tick falls due: the series and the policies stay idle.
	const never = int64(1) << 60
	s := NewScheduler(m, RunConfig{DurationNs: never, WindowNs: never}, "four", "none", nil)
	for i, share := range []int{2, 1, 1, 1} {
		app := &uniformApp{name: string(rune('a' + i)), size: 4 << 20, huge: true, r: rng.New(uint64(i + 1)), compute: 500}
		if err := app.Init(m); err != nil {
			t.Fatal(err)
		}
		s.Add(app.name, app, NullPolicy{Interval: never}, share)
		s.Join(i)
	}
	block := func() {
		if err := s.Block(never); err != nil {
			t.Fatal(err)
		}
	}
	for range 200 {
		block()
	}
	if allocs := testing.AllocsPerRun(50, block); allocs != 0 {
		t.Errorf("%v allocs per block", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		s.Leave(2)
		block()
		s.Join(2)
		block()
	}); allocs != 0 {
		t.Errorf("%v allocs per Leave, block, Join, block", allocs)
	}
	if got := s.Ops(2); got == 0 {
		t.Error("member 2 issued no ops")
	}
}
