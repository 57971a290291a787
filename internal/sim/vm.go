package sim

import (
	"fmt"

	"thermostat/internal/tlb"
	"thermostat/internal/walk"
)

// PagingMode selects native or nested translation.
type PagingMode int

// Paging modes.
const (
	// Native runs the workload bare-metal: one-dimensional walks.
	Native PagingMode = iota
	// Nested runs under a hypervisor with EPT/NPT: two-dimensional walks.
	Nested
)

// String names the mode.
func (m PagingMode) String() string {
	switch m {
	case Native:
		return "native"
	case Nested:
		return "nested"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// DefaultVMExitLatencyNs approximates a KVM vmexit/vmentry round trip plus
// host fault dispatch.
const DefaultVMExitLatencyNs = 4000

// VMConfig describes one guest's virtualization setup.
type VMConfig struct {
	// Mode selects native or nested paging.
	Mode PagingMode
	// HostHugePages selects 2MB host (EPT) mappings; false means the host
	// maps guest memory with 4KB pages. Only meaningful under Nested.
	HostHugePages bool
	// TrapInHost moves the BadgerTrap handler to the host, charging a
	// vmexit on every poison fault (the configuration the paper rejects).
	TrapInHost bool
	// VMExitLatencyNs is the vmexit cost; 0 selects the default.
	VMExitLatencyNs int64
}

// DefaultVMConfig is the paper's evaluated configuration: KVM with huge pages
// at both levels and BadgerTrap in the guest.
func DefaultVMConfig() VMConfig {
	return VMConfig{Mode: Nested, HostHugePages: true}
}

// VM is one guest of the paper's testbed: KVM with nested (two-dimensional)
// paging, VPID-tagged TLB entries, and vmexit costs.
//
// The parts of virtualization that matter to Thermostat are (a) nested page
// walks, which make 4KB page management drastically more expensive and
// motivate huge-page awareness (Table 1), and (b) the placement of the
// BadgerTrap fault handler: in the guest a poison fault costs ~1us, while in
// the host every fault would vmexit, destroy the VPID-0-tagging invariant,
// and cost far more — which is why the paper installs BadgerTrap in the
// guest (§4.2).
type VM struct {
	cfg  VMConfig
	vpid tlb.VPID
}

// newVM builds a guest with the given VPID (must be non-zero; VPID 0 is the
// host).
func newVM(cfg VMConfig, vpid tlb.VPID) (*VM, error) {
	if vpid == tlb.HostVPID && cfg.Mode == Nested {
		return nil, fmt.Errorf("sim: guest VPID must be non-zero")
	}
	if cfg.VMExitLatencyNs == 0 {
		cfg.VMExitLatencyNs = DefaultVMExitLatencyNs
	}
	return &VM{cfg: cfg, vpid: vpid}, nil
}

// VPID returns the guest's TLB tag.
func (v *VM) VPID() tlb.VPID { return v.vpid }

// Nested reports whether translation is two-dimensional.
func (v *VM) Nested() bool { return v.cfg.Mode == Nested }

// HostWalkDepth returns the host-dimension walk depth for nested walks.
func (v *VM) HostWalkDepth() int {
	if v.cfg.HostHugePages {
		return walk.Depth2M
	}
	return walk.Depth4K
}

// FaultOverheadNs returns the extra latency a poison fault incurs beyond the
// handler itself: zero with the handler in the guest, a vmexit round trip
// with the handler in the host.
func (v *VM) FaultOverheadNs() int64 {
	if v.cfg.TrapInHost && v.Nested() {
		return v.cfg.VMExitLatencyNs
	}
	return 0
}
