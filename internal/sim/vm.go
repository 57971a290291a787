package sim

import (
	"fmt"

	"thermostat/internal/tlb"
	"thermostat/internal/walk"
)

// pagingMode selects native or nested translation.
type pagingMode int

// Paging modes.
const (
	// native runs the workload bare-metal: one-dimensional walks.
	native pagingMode = iota
	// nested runs under a hypervisor with EPT/NPT: two-dimensional walks.
	nested
)

// String names the mode.
func (m pagingMode) String() string {
	switch m {
	case native:
		return "native"
	case nested:
		return "nested"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// defaultVMExitLatencyNs approximates a KVM vmexit/vmentry round trip plus
// host fault dispatch.
const defaultVMExitLatencyNs = 4000

// vmConfig describes one guest's virtualization setup.
type vmConfig struct {
	// Mode selects native or nested paging.
	Mode pagingMode
	// HostHugePages selects 2MB host (EPT) mappings; false means the host
	// maps guest memory with 4KB pages. Only meaningful under nested.
	HostHugePages bool
	// TrapInHost moves the BadgerTrap handler to the host, charging a
	// vmexit on every poison fault (the configuration the paper rejects).
	TrapInHost bool
	// VMExitLatencyNs is the vmexit cost; 0 selects the default.
	VMExitLatencyNs int64
}

// defaultVMConfig is the paper's evaluated configuration: KVM with huge pages
// at both levels and BadgerTrap in the guest.
func defaultVMConfig() vmConfig {
	return vmConfig{Mode: nested, HostHugePages: true}
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
	cfg  vmConfig
	vpid tlb.VPID
}

// newVM builds a guest with the given VPID (must be non-zero; VPID 0 is the
// host).
func newVM(cfg vmConfig, vpid tlb.VPID) (*virtualMachine, error) {
	if vpid == tlb.HostVPID && cfg.Mode == nested {
		return nil, fmt.Errorf("sim: guest VPID must be non-zero")
	}
	if cfg.VMExitLatencyNs == 0 {
		cfg.VMExitLatencyNs = defaultVMExitLatencyNs
	}
	return &virtualMachine{cfg: cfg, vpid: vpid}, nil
}

// VPID returns the guest's TLB tag.
func (v *virtualMachine) VPID() tlb.VPID { return v.vpid }

// Nested reports whether translation is two-dimensional.
func (v *virtualMachine) Nested() bool { return v.cfg.Mode == nested }

// HostWalkDepth returns the host-dimension walk depth for nested walks.
func (v *virtualMachine) HostWalkDepth() int {
	if v.cfg.HostHugePages {
		return walk.Depth2M
	}
	return walk.Depth4K
}

// FaultOverheadNs returns the extra latency a poison fault incurs beyond the
// handler itself: zero with the handler in the guest, a vmexit round trip
// with the handler in the host.
func (v *virtualMachine) FaultOverheadNs() int64 {
	if v.cfg.TrapInHost && v.Nested() {
		return v.cfg.VMExitLatencyNs
	}
	return 0
}
