package sim

import (
	"testing"

	"thermostat/internal/rng"
)

// TestBlockDoesNotAllocate: once the LLC and TLB are warm, a four-member
// Block allocates nothing, drawing ahead or not, and neither does a Leave
// or a Join at a boundary: the ring and the producer are made once.
func TestBlockDoesNotAllocate(t *testing.T) {
	m, err := New(DefaultConfig(64<<20, 64<<20))
	if err != nil {
		t.Fatal(err)
	}
	// No window or tick falls due: the series and the policies stay idle.
	const never = int64(1) << 60
	s := NewScheduler(m, RunConfig{DurationNs: never, WindowNs: never}, "four", "none", nil)
	defer s.Stop()
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
	if s.ahead == 0 {
		t.Fatal("no block was drawn ahead")
	}
	if allocs := testing.AllocsPerRun(50, block); allocs != 0 {
		t.Errorf("%v allocs per block", allocs)
	}
	// Churn belongs at a boundary, where nothing is drawn ahead: issue
	// blocks up to one far enough off that the first block draws ahead.
	gap := 3 * MaxBlockOps * m.maxOpAdvanceNs(500)
	toBoundary := func() {
		for end := m.Clock() + gap; m.Clock() < end; {
			if err := s.Block(end); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Stop()
	if allocs := testing.AllocsPerRun(50, func() {
		s.Leave(2)
		toBoundary()
		s.Join(2)
		toBoundary()
	}); allocs != 0 {
		t.Errorf("%v allocs per Leave, blocks, Join, blocks", allocs)
	}
	if s.todo == nil {
		t.Error("no block was drawn ahead between boundaries")
	}
	if got := s.Ops(2); got == 0 {
		t.Error("member 2 issued no ops")
	}
}
