// Per-group memory accounting, modelled on the kernel's memory.current /
// memory.max pair. The fleet arbiter uses it to track each tenant's
// fast-tier residency against its DRAM grant: the root group's limit is the
// machine's DRAM pool, each tenant is a child whose limit is its current
// grant, and every page that lands in (or leaves) the top tier is charged
// (uncharged) through the whole chain.
//
// Two charge flavours exist on purpose:
//
//   - TryCharge is the checked path: it atomically checks the limit at
//     every ancestor and either applies the charge at all levels or none.
//     Nothing in the simulator calls it (bench/replay.go times it): fleet
//     admission is fleet.Arbitrate over the floors and demands plus a check
//     that the top tier's free bytes hold the newcomer's estimate.
//   - Charge is the residency-mirror path: it applies unconditionally,
//     because it records what the hardware already did (a migration that
//     has happened cannot be refused). A group driven over its limit this
//     way reports the excess via OverLimit, which is the arbiter's squeeze
//     signal.
package cgroup

import (
	"errors"
	"fmt"
)

// ErrOverLimit is returned by TryCharge when the charge would exceed the
// limit of the group or any of its ancestors.
var ErrOverLimit = errors.New("cgroup: charge exceeds limit")

// NewChild validates p and creates a child group that charges through g.
func (g *Group) NewChild(name string, p Params) (*Group, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Group{name: name, parent: g, params: p}, nil
}

// Parent returns the group charged above this one (nil for a root).
func (g *Group) Parent() *Group { return g.parent }

// SetLimit replaces the accounting limit (0 = unlimited). Lowering the
// limit below current usage is allowed — exactly like writing memory.max —
// and simply leaves the group over limit until usage drains.
func (g *Group) SetLimit(bytes uint64) {
	g.mu.Lock()
	g.limit = bytes
	g.mu.Unlock()
}

// Limit returns the current accounting limit (0 = unlimited).
func (g *Group) Limit() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.limit
}

// Usage returns the bytes currently charged to the group.
func (g *Group) Usage() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.usage
}

// OverLimit returns how many charged bytes exceed the group's own limit
// (zero when unlimited or under limit).
func (g *Group) OverLimit() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.limit == 0 || g.usage <= g.limit {
		return 0
	}
	return g.usage - g.limit
}

// chain returns the group and its ancestors, leaf first. Every multi-group
// operation locks in this order, so concurrent charges on sibling subtrees
// cannot deadlock on the shared ancestors.
func (g *Group) chain() []*Group {
	var cs []*Group
	for n := g; n != nil; n = n.parent {
		cs = append(cs, n)
	}
	return cs
}

// TryCharge atomically charges bytes to the group and every ancestor, or —
// if the charge would push any of them over its limit — charges nothing and
// returns ErrOverLimit naming the level that refused.
func (g *Group) TryCharge(bytes uint64) error {
	cs := g.chain()
	for _, n := range cs {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range cs {
			n.mu.Unlock()
		}
	}()
	for _, n := range cs {
		if n.limit != 0 && n.usage+bytes > n.limit {
			return fmt.Errorf("%w: %s at %d/%d +%d", ErrOverLimit, n.name, n.usage, n.limit, bytes)
		}
	}
	for _, n := range cs {
		n.usage += bytes
	}
	return nil
}

// Charge records bytes against the group and every ancestor without
// checking limits: it mirrors residency the machine already holds. Use
// OverLimit afterwards to detect pressure.
func (g *Group) Charge(bytes uint64) {
	for _, n := range g.chain() {
		n.mu.Lock()
		n.usage += bytes
		n.mu.Unlock()
	}
}

// Uncharge releases bytes from the group and every ancestor. Releasing more
// than is charged at any level is a bookkeeping bug and panics, in the same
// spirit as the allocator's double-free panic.
func (g *Group) Uncharge(bytes uint64) {
	cs := g.chain()
	for _, n := range cs {
		n.mu.Lock()
	}
	defer func() {
		for _, n := range cs {
			n.mu.Unlock()
		}
	}()
	for _, n := range cs {
		if bytes > n.usage {
			panic(fmt.Sprintf("cgroup: uncharge %d exceeds usage %d on %q", bytes, n.usage, n.name))
		}
	}
	for _, n := range cs {
		n.usage -= bytes
	}
}
