package sim

import (
	"testing"

	"thermostat/internal/walk"
)

// TestGuestVPIDValidation: the guest tags its TLB entries with a VPID of
// its own, never the host's VPID 0, and the machine's accesses use it.
func TestGuestVPIDValidation(t *testing.T) {
	m := newMachine(t)
	if m.VPID() == 0 || m.VPID() != m.Guest().vpid() {
		t.Fatalf("machine VPID %d, guest VPID %d: want one non-host tag", m.VPID(), m.Guest().vpid())
	}
	r, err := m.AllocRegion(2<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Access(r.Start, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.TLB().Lookup(r.Start, 0); ok {
		t.Fatal("guest access filled a host-tagged TLB entry")
	}
	if _, ok := m.TLB().Lookup(r.Start, m.VPID()); !ok {
		t.Fatal("guest access left no guest-tagged TLB entry")
	}
}

func TestFaultOverhead(t *testing.T) {
	guestTrap := &virtualMachine{cfg: defaultVMConfig()}
	if guestTrap.faultOverheadNs() != 0 {
		t.Fatal("guest-side trap should have no vmexit overhead")
	}
	hostTrap := &virtualMachine{cfg: vmConfig{TrapInHost: true}}
	if hostTrap.faultOverheadNs() != vmExitLatencyNs {
		t.Fatalf("host-side trap overhead = %d", hostTrap.faultOverheadNs())
	}
}

// TestWalkLatencyTable: the per-depth walk table the access path reads holds
// the walk model's latency at every guest depth, over huge and 4 KB host
// pages, and maxOpAdvanceNs, which reads its depth-4 entry, returns the
// bounds the model gave when it was called per access.
func TestWalkLatencyTable(t *testing.T) {
	cases := []struct {
		vm  vmConfig
		adv [2]int64 // maxOpAdvanceNs(0), maxOpAdvanceNs(1234)
	}{
		{vmConfig{HostHugePages: true}, [2]int64{293, 447}},
		{vmConfig{}, [2]int64{303, 457}},
		{vmConfig{TrapInHost: true}, [2]int64{803, 957}},
	}
	for _, c := range cases {
		cfg := DefaultConfig(64<<20, 64<<20)
		cfg.VM = c.vm
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wm, err := walk.NewModel(cfg.Walk)
		if err != nil {
			t.Fatal(err)
		}
		for d := 1; d <= walk.Depth4K; d++ {
			if want := wm.Latency(true, d, m.guest.HostWalkDepth()); m.walkLat[d] != want {
				t.Errorf("%+v: walkLat[%d] = %d, model says %d", c.vm, d, m.walkLat[d], want)
			}
		}
		if got := [2]int64{m.maxOpAdvanceNs(0), m.maxOpAdvanceNs(1234)}; got != c.adv {
			t.Errorf("%+v: maxOpAdvanceNs(0), (1234) = %v, want %v", c.vm, got, c.adv)
		}
	}
}
