package cgroup

import (
	"errors"
	"sync"
	"testing"
)

const mb = 1 << 20

func fleetTree(t *testing.T) (root, a, b *Group) {
	t.Helper()
	root, err := NewGroup("pool", Default())
	if err != nil {
		t.Fatal(err)
	}
	root.SetLimit(100 * mb)
	a, err = root.NewChild("tenant-a", Default())
	if err != nil {
		t.Fatal(err)
	}
	b, err = root.NewChild("tenant-b", Default())
	if err != nil {
		t.Fatal(err)
	}
	return root, a, b
}

func TestNestedChargeUnchargeBalance(t *testing.T) {
	root, a, b := fleetTree(t)
	if a.Parent() != root || b.Parent() != root || root.Parent() != nil {
		t.Fatal("hierarchy wiring broken")
	}

	a.Charge(10 * mb)
	b.Charge(30 * mb)
	a.Charge(5 * mb)
	if got := a.Usage(); got != 15*mb {
		t.Fatalf("a usage = %d, want %d", got, 15*mb)
	}
	if got := b.Usage(); got != 30*mb {
		t.Fatalf("b usage = %d, want %d", got, 30*mb)
	}
	// The root always sees the sum of its children.
	if got := root.Usage(); got != 45*mb {
		t.Fatalf("root usage = %d, want %d", got, 45*mb)
	}

	a.Uncharge(15 * mb)
	b.Uncharge(30 * mb)
	if root.Usage() != 0 || a.Usage() != 0 || b.Usage() != 0 {
		t.Fatalf("uncharge did not balance: root %d a %d b %d",
			root.Usage(), a.Usage(), b.Usage())
	}
}

func TestUnchargeUnderflowPanics(t *testing.T) {
	_, a, _ := fleetTree(t)
	a.Charge(mb)
	defer func() {
		if recover() == nil {
			t.Fatal("uncharging more than usage did not panic")
		}
	}()
	a.Uncharge(2 * mb)
}

func TestTryChargeIsAtomicAcrossLevels(t *testing.T) {
	root, a, b := fleetTree(t)
	a.SetLimit(40 * mb)

	// Under every limit: applies at both levels.
	if err := a.TryCharge(30 * mb); err != nil {
		t.Fatal(err)
	}
	if a.Usage() != 30*mb || root.Usage() != 30*mb {
		t.Fatalf("charge not propagated: a %d root %d", a.Usage(), root.Usage())
	}

	// Refused by the child's own limit: nothing changes anywhere.
	if err := a.TryCharge(20 * mb); !errors.Is(err, errOverLimit) {
		t.Fatalf("want ErrOverLimit, got %v", err)
	}
	if a.Usage() != 30*mb || root.Usage() != 30*mb {
		t.Fatalf("refused charge leaked: a %d root %d", a.Usage(), root.Usage())
	}

	// Refused by the root even though the child has headroom.
	if err := b.TryCharge(80 * mb); !errors.Is(err, errOverLimit) {
		t.Fatalf("want ErrOverLimit from root, got %v", err)
	}
	if b.Usage() != 0 || root.Usage() != 30*mb {
		t.Fatalf("root-refused charge leaked: b %d root %d", b.Usage(), root.Usage())
	}
}

func TestLimitChangeMidRun(t *testing.T) {
	_, a, _ := fleetTree(t)
	a.SetLimit(40 * mb)
	a.Charge(35 * mb)
	if got := a.OverLimit(); got != 0 {
		t.Fatalf("under limit but OverLimit = %d", got)
	}

	// The arbiter shrinks the grant below current residency — allowed, and
	// the excess becomes the squeeze signal.
	a.SetLimit(20 * mb)
	if got := a.OverLimit(); got != 15*mb {
		t.Fatalf("OverLimit = %d, want %d", got, 15*mb)
	}
	if err := a.TryCharge(mb); !errors.Is(err, errOverLimit) {
		t.Fatal("over-limit group accepted a TryCharge")
	}
	// Residency mirroring still lands (the migration already happened).
	a.Charge(mb)
	if got := a.Usage(); got != 36*mb {
		t.Fatalf("usage = %d, want %d", got, 36*mb)
	}

	// Draining below the new grant clears the pressure and re-opens
	// admission.
	a.Uncharge(20 * mb)
	if got := a.OverLimit(); got != 0 {
		t.Fatalf("OverLimit = %d after drain, want 0", got)
	}
	if err := a.TryCharge(mb); err != nil {
		t.Fatal(err)
	}

	// Limit 0 means unlimited, not zero byte (the root's pool limit still
	// applies, so stay inside it).
	a.SetLimit(0)
	if err := a.TryCharge(50 * mb); err != nil {
		t.Fatalf("unlimited group refused charge: %v", err)
	}
}

func TestConcurrentChargesBalance(t *testing.T) {
	root, a, b := fleetTree(t)
	root.SetLimit(0)
	var wg sync.WaitGroup
	for _, g := range []*Group{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Charge(4096)
				g.Uncharge(4096)
				if err := g.TryCharge(4096); err == nil {
					g.Uncharge(4096)
				}
			}
		}()
	}
	wg.Wait()
	if root.Usage() != 0 || a.Usage() != 0 || b.Usage() != 0 {
		t.Fatalf("concurrent charges drifted: root %d a %d b %d",
			root.Usage(), a.Usage(), b.Usage())
	}
}

func TestNewChildValidates(t *testing.T) {
	root, _, _ := fleetTree(t)
	if _, err := root.NewChild("bad", Params{}); err == nil {
		t.Fatal("zero params accepted for child")
	}
}
