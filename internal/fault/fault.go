// Package fault defines the simulated MMU's fault record: what the hardware
// walk hands the kernel's page-fault entry point that BadgerTrap hooks to
// intercept reserved-bit protection faults.
package fault

import (
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/tlb"
)

// Kind classifies a fault.
type Kind int

// Poison is a reserved-bit protection fault from a poisoned PTE — the
// signal BadgerTrap intercepts, and the only kind the simulator raises.
const Poison Kind = iota

// String names the kind.
func (k Kind) String() string {
	if k == Poison {
		return "poison"
	}
	return fmt.Sprintf("kind%d", int(k))
}

// Fault describes one faulting access.
type Fault struct {
	Kind  Kind
	Virt  addr.Virt
	Write bool
	VPID  tlb.VPID
}
