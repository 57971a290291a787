package sim

import "testing"

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
