package sim

import (
	"thermostat/internal/tlb"
	"thermostat/internal/walk"
)

// vmExitLatencyNs approximates a KVM vmexit/vmentry round trip plus host
// fault dispatch.
const vmExitLatencyNs = 4000

// guestVPID is the guest's TLB tag; VPID 0 is the host's.
const guestVPID tlb.VPID = 1

// vmConfig describes the guest's virtualization setup. Paging is always
// nested (EPT/NPT, two-dimensional walks), as on the paper's testbed.
type vmConfig struct {
	// HostHugePages selects 2MB host (EPT) mappings; false means the host
	// maps guest memory with 4KB pages.
	HostHugePages bool
	// TrapInHost moves the BadgerTrap handler to the host, charging a
	// vmexit on every poison fault (the configuration the paper rejects).
	TrapInHost bool
}

// defaultVMConfig is the paper's evaluated configuration: KVM with huge pages
// at both levels and BadgerTrap in the guest.
func defaultVMConfig() vmConfig {
	return vmConfig{HostHugePages: true}
}

// virtualMachine is one guest of the paper's testbed: KVM with nested (two-dimensional)
// paging, VPID-tagged TLB entries, and vmexit costs.
//
// The parts of virtualization that matter to Thermostat are (a) nested page
// walks, which make 4KB page management drastically more expensive and
// motivate huge-page awareness (Table 1), and (b) the placement of the
// BadgerTrap fault handler: in the guest a poison fault costs ~1us, while in
// the host every fault would vmexit, destroy the VPID-0-tagging invariant,
// and cost far more — which is why the paper installs BadgerTrap in the
// guest (§4.2).
type virtualMachine struct {
	cfg vmConfig
}

// vpid returns the guest's TLB tag.
func (v *virtualMachine) vpid() tlb.VPID { return guestVPID }

// Nested reports whether translation is two-dimensional: always, since the
// guest runs under EPT/NPT.
func (v *virtualMachine) Nested() bool { return true }

// HostWalkDepth returns the host-dimension walk depth for nested walks.
func (v *virtualMachine) HostWalkDepth() int {
	if v.cfg.HostHugePages {
		return walk.Depth2M
	}
	return walk.Depth4K
}

// faultOverheadNs returns the extra latency a poison fault incurs beyond the
// handler itself: zero with the handler in the guest, a vmexit round trip
// with the handler in the host.
func (v *virtualMachine) faultOverheadNs() int64 {
	if v.cfg.TrapInHost {
		return vmExitLatencyNs
	}
	return 0
}
