package sim

import (
	"testing"

	"thermostat/internal/walk"
)

func TestGuestVPIDValidation(t *testing.T) {
	if _, err := newVM(defaultVMConfig(), 0); err == nil {
		t.Fatal("nested guest with VPID 0 accepted")
	}
	g, err := newVM(defaultVMConfig(), 1)
	if err != nil || g.VPID() != 1 {
		t.Fatalf("New: %v", err)
	}
	// Native mode may use VPID 0 (bare metal host).
	if _, err := newVM(vmConfig{Mode: native}, 0); err != nil {
		t.Fatalf("native VPID 0 rejected: %v", err)
	}
}

func TestFaultOverhead(t *testing.T) {
	guestTrap, _ := newVM(defaultVMConfig(), 1)
	if guestTrap.FaultOverheadNs() != 0 {
		t.Fatal("guest-side trap should have no vmexit overhead")
	}
	hostTrap, _ := newVM(vmConfig{Mode: nested, TrapInHost: true}, 1)
	if hostTrap.FaultOverheadNs() != defaultVMExitLatencyNs {
		t.Fatalf("host-side trap overhead = %d", hostTrap.FaultOverheadNs())
	}
	custom, _ := newVM(vmConfig{Mode: nested, TrapInHost: true, VMExitLatencyNs: 9999}, 1)
	if custom.FaultOverheadNs() != 9999 {
		t.Fatal("custom vmexit latency ignored")
	}
	// TrapInHost is meaningless without nesting.
	native, _ := newVM(vmConfig{Mode: native, TrapInHost: true}, 0)
	if native.FaultOverheadNs() != 0 {
		t.Fatal("native mode should never charge vmexit")
	}
}

func TestModeString(t *testing.T) {
	if native.String() != "native" || nested.String() != "nested" {
		t.Fatal("mode names wrong")
	}
}

// TestWalkLatencyTable: the per-depth walk table the access path reads holds
// the walk model's latency at every guest depth, for native and nested
// guests over huge and 4 KB host pages, and maxOpAdvanceNs, which reads its
// depth-4 entry, returns the bounds the model gave when it was called per
// access.
func TestWalkLatencyTable(t *testing.T) {
	cases := []struct {
		vm      vmConfig
		threads int
		adv     [2]int64 // maxOpAdvanceNs(0), maxOpAdvanceNs(1234)
	}{
		{vmConfig{Mode: native}, 8, [2]int64{263, 417}},
		{vmConfig{Mode: native, HostHugePages: true}, 3, [2]int64{699, 1110}},
		{vmConfig{Mode: nested, HostHugePages: true}, 8, [2]int64{293, 447}},
		{vmConfig{Mode: nested, HostHugePages: true}, 3, [2]int64{780, 1191}},
		{vmConfig{Mode: nested}, 8, [2]int64{303, 457}},
		{vmConfig{Mode: nested}, 3, [2]int64{808, 1219}},
		{vmConfig{Mode: nested, TrapInHost: true}, 8, [2]int64{803, 957}},
	}
	for _, c := range cases {
		cfg := DefaultConfig(64<<20, 64<<20)
		cfg.VM, cfg.Threads = c.vm, c.threads
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := walk.NewModel(cfg.Walk)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= walk.Depth4K; d++ {
			if want := wm.Latency(m.guest.Nested(), d, m.guest.HostWalkDepth()); m.walkLat[d] != want {
				t.Errorf("%+v: walkLat[%d] = %d, model says %d", c.vm, d, m.walkLat[d], want)
			}
		}
		if got := [2]int64{m.maxOpAdvanceNs(0), m.maxOpAdvanceNs(1234)}; got != c.adv {
			t.Errorf("%+v, %d threads: maxOpAdvanceNs(0), (1234) = %v, want %v", c.vm, c.threads, got, c.adv)
		}
	}
}
