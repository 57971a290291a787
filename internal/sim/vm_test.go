package sim

import (
	"testing"

	"thermostat/internal/pagetable"
)

func TestGuestVPIDValidation(t *testing.T) {
	if _, err := newVM(DefaultVMConfig(), 0); err == nil {
		t.Fatal("nested guest with VPID 0 accepted")
	}
	g, err := newVM(DefaultVMConfig(), 1)
	if err != nil || g.VPID() != 1 {
		t.Fatalf("New: %v", err)
	}
	// Native mode may use VPID 0 (bare metal host).
	if _, err := newVM(VMConfig{Mode: Native}, 0); err != nil {
		t.Fatalf("native VPID 0 rejected: %v", err)
	}
}

func TestWalkAccessesMatrix(t *testing.T) {
	cases := []struct {
		name  string
		cfg   VMConfig
		guest pagetable.Level
		want  int
	}{
		{"native 4K", VMConfig{Mode: Native}, pagetable.Level4K, 4},
		{"native 2M", VMConfig{Mode: Native}, pagetable.Level2M, 3},
		{"nested 4K/4K", VMConfig{Mode: Nested}, pagetable.Level4K, 24},
		{"nested 2M/2M", VMConfig{Mode: Nested, HostHugePages: true}, pagetable.Level2M, 15},
		{"nested 2M/4K", VMConfig{Mode: Nested}, pagetable.Level2M, 19},
		{"nested 4K/2M", VMConfig{Mode: Nested, HostHugePages: true}, pagetable.Level4K, 19},
	}
	for _, c := range cases {
		g, err := newVM(c.cfg, 1)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := g.WalkAccesses(c.guest); got != c.want {
			t.Errorf("%s: WalkAccesses = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestFaultOverhead(t *testing.T) {
	guestTrap, _ := newVM(DefaultVMConfig(), 1)
	if guestTrap.FaultOverheadNs() != 0 {
		t.Fatal("guest-side trap should have no vmexit overhead")
	}
	hostTrap, _ := newVM(VMConfig{Mode: Nested, TrapInHost: true}, 1)
	if hostTrap.FaultOverheadNs() != DefaultVMExitLatencyNs {
		t.Fatalf("host-side trap overhead = %d", hostTrap.FaultOverheadNs())
	}
	custom, _ := newVM(VMConfig{Mode: Nested, TrapInHost: true, VMExitLatencyNs: 9999}, 1)
	if custom.FaultOverheadNs() != 9999 {
		t.Fatal("custom vmexit latency ignored")
	}
	// TrapInHost is meaningless without nesting.
	native, _ := newVM(VMConfig{Mode: Native, TrapInHost: true}, 0)
	if native.FaultOverheadNs() != 0 {
		t.Fatal("native mode should never charge vmexit")
	}
}

func TestModeString(t *testing.T) {
	if Native.String() != "native" || Nested.String() != "nested" {
		t.Fatal("mode names wrong")
	}
}
