// Package mem models the tiered physical memory system: an ordered
// hierarchy of memory devices from fastest (tier 0, conventional DRAM) to
// slowest (dense, cheap technologies such as CXL-attached DRAM or
// 3D-XPoint-class NVM). Each tier owns a slice of the simulated physical
// address space, a frame allocator at 4KB and 2MB grains, and
// latency/bandwidth parameters used by the machine model.
//
// The paper's system is the two-tier special case (DRAM + slow memory);
// NewSystem builds exactly that. NewHierarchy accepts any ordered spec list
// up to MaxTiers, and the rest of the stack (migrator, simulator, policies)
// is tier-count-agnostic.
//
// Physical address space layout: tier i owns addresses [i<<TierShift,
// (i+1)<<TierShift), so the owning tier of any physical address is recovered
// with a shift — mirroring how a real system carves NUMA zones out of the
// physical map.
package mem

import (
	"errors"
	"fmt"
	mathbits "math/bits"

	"thermostat/internal/addr"
)

// TierID identifies a memory tier by its position in the ordered hierarchy:
// 0 is the fastest device, higher IDs are progressively slower and cheaper.
type TierID int

// The two tiers of the paper's hybrid memory system. In an N-tier hierarchy
// Fast remains the top tier; Slow is the second tier (the paper's only
// other tier), not necessarily the bottom.
const (
	// Fast is conventional DRAM, always tier 0.
	Fast TierID = 0
	// Slow is the dense, cheap, higher-latency technology.
	Slow TierID = 1
)

// MaxTiers bounds the hierarchy depth. The physical map carves one
// TierShift-sized window per tier, so the bound also guards TierOf against
// corrupt physical addresses.
const MaxTiers = 8

// String names the tier by position: "fast" and "slow" for the paper's two
// tiers, "tierN" below them. Device-class names ("cxl", "nvm") belong to a
// hierarchy's specs, not to the process — ask the owning System's Tier.Name.
func (id TierID) String() string {
	switch id {
	case Fast:
		return "fast"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("tier%d", int(id))
}

// TierShift positions each tier 16TB apart in the physical map.
const TierShift = 44

// TierOf returns the tier owning physical address p. It panics on addresses
// outside the MaxTiers-bounded physical map — such an address is corrupt
// (never produced by any tier's allocator), and silently indexing a
// nonexistent tier with it would corrupt placement decisions. Callers with
// access to a System should prefer System.TierOf, which also validates the
// tier against the configured hierarchy.
func TierOf(p addr.Phys) TierID {
	id := TierID(uint64(p) >> TierShift)
	if id >= MaxTiers {
		panic(fmt.Sprintf("mem: physical address %s beyond the %d-tier physical map (corrupt frame?)", p, MaxTiers))
	}
	return id
}

// Spec describes one tier's hardware characteristics.
type Spec struct {
	// Name labels the device class ("fast", "cxl", "nvm", ...) in reports
	// and error messages. Empty is allowed; the tier then renders by
	// position.
	Name string
	// Capacity in bytes; rounded down to whole 2MB frames.
	Capacity uint64
	// ReadLatency is the device read latency in nanoseconds (DRAM ~80ns,
	// slow memory ~1000ns in the paper's emulation).
	ReadLatency int64
	// WriteLatency is the device write latency in nanoseconds.
	WriteLatency int64
	// Bandwidth is the sustainable device bandwidth in bytes/second, used
	// to sanity-check migration traffic (Table 3) and to bound migration
	// copy costs.
	Bandwidth float64
	// CostPerGB is the relative cost per GB (DRAM = 1.0); used by the
	// Table 4 cost model and its N-tier generalization.
	CostPerGB float64
}

// DefaultDRAM returns the paper's DRAM-tier parameters for the given
// capacity.
func DefaultDRAM(capacity uint64) Spec {
	return Spec{
		Name:         "fast",
		Capacity:     capacity,
		ReadLatency:  80,
		WriteLatency: 80,
		Bandwidth:    50e9,
		CostPerGB:    1.0,
	}
}

// DefaultSlow returns the paper's emulated slow-memory parameters (1us
// average access latency, one third of DRAM cost) for the given capacity.
func DefaultSlow(capacity uint64) Spec {
	return Spec{
		Name:         "slow",
		Capacity:     capacity,
		ReadLatency:  1000,
		WriteLatency: 1000,
		Bandwidth:    10e9,
		CostPerGB:    1.0 / 3.0,
	}
}

// DefaultCXL returns parameters for a CXL-attached DRAM expander: a middle
// tier between local DRAM and NVM (~250ns loads, half of DRAM cost) as
// evaluated by terabyte-scale tiering work (e.g. Telescope).
func DefaultCXL(capacity uint64) Spec {
	return Spec{
		Name:         "cxl",
		Capacity:     capacity,
		ReadLatency:  250,
		WriteLatency: 250,
		Bandwidth:    30e9,
		CostPerGB:    0.5,
	}
}

// DefaultNVM returns parameters for a 3D-XPoint-class NVM bottom tier: the
// paper's slow-memory latency point at the cheapest Table 4 price ratio.
func DefaultNVM(capacity uint64) Spec {
	return Spec{
		Name:         "nvm",
		Capacity:     capacity,
		ReadLatency:  1000,
		WriteLatency: 1000,
		Bandwidth:    10e9,
		CostPerGB:    1.0 / 5.0,
	}
}

// presets maps device-class names to their Spec constructors.
var presets = map[string]func(uint64) Spec{
	"fast": DefaultDRAM,
	"dram": DefaultDRAM,
	"slow": DefaultSlow,
	"cxl":  DefaultCXL,
	"nvm":  DefaultNVM,
}

// Preset resolves a named device preset ("dram", "fast", "cxl", "nvm",
// "slow") at the given capacity.
func Preset(name string, capacity uint64) (Spec, bool) {
	f, ok := presets[name]
	if !ok {
		return Spec{}, false
	}
	return f(capacity), true
}

// PresetNames lists the device classes Preset resolves.
func PresetNames() []string { return []string{"dram", "fast", "cxl", "nvm", "slow"} }

// ErrOutOfMemory is returned when a tier cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("mem: tier out of memory")

// Tier is one memory tier: spec plus a frame allocator. Allocation is
// buddy-lite: the tier hands out whole 2MB frames; a 2MB frame may be broken
// into 512 4KB frames, and 4KB frames coalesce back when all 512 siblings
// are free.
type Tier struct {
	id   TierID
	spec Spec

	// The 2MB allocator is a lazy bump pointer plus a freed LIFO: next2M is
	// the lowest never-allocated frame number, end2M one past the tier's
	// last frame, and freed2M holds returned frames, reused LIFO before the
	// bump region advances. The allocation sequence is identical to the
	// eager free-list this replaces (a descending list popped from its
	// tail), but constructing a tier is O(1) instead of O(frames) — a 1 TB
	// tier no longer materializes half a million list entries up front.
	next2M, end2M uint64
	freed2M       []uint64
	// broken tracks 2MB frames that have been split for 4KB allocation:
	// frame number -> bitmap of free 4KB children (1 = free).
	broken map[uint64]*childMap

	used uint64 // bytes allocated
}

type childMap struct {
	free  [8]uint64 // 512-bit bitmap
	nFree int
}

func newChildMap() *childMap {
	c := &childMap{nFree: addr.PagesPerHuge}
	for i := range c.free {
		c.free[i] = ^uint64(0)
	}
	return c
}

func (c *childMap) take() int {
	for w, bits := range c.free {
		if bits == 0 {
			continue
		}
		b := mathbits.TrailingZeros64(bits)
		c.free[w] &^= 1 << uint(b)
		c.nFree--
		return w*64 + b
	}
	return -1
}

func (c *childMap) put(i int) bool {
	w, b := i/64, uint(i%64)
	if c.free[w]&(1<<b) != 0 {
		return false // already free: double free
	}
	c.free[w] |= 1 << b
	c.nFree++
	return true
}

// NewTier builds a tier with the given identity and spec.
func NewTier(id TierID, spec Spec) *Tier {
	if id < 0 || id >= MaxTiers {
		panic(fmt.Sprintf("mem: tier id %d outside [0, %d)", int(id), MaxTiers))
	}
	t := &Tier{id: id, spec: spec, broken: make(map[uint64]*childMap)}
	base := uint64(id) << (TierShift - addr.PageShift2M) // in 2MB frame numbers
	t.next2M = base
	t.end2M = base + spec.Capacity/addr.PageSize2M
	return t
}

// ID returns the tier's identity.
func (t *Tier) ID() TierID { return t.id }

// Name returns the tier's device-class name, falling back to the positional
// name when the spec is unnamed.
func (t *Tier) Name() string {
	if t.spec.Name != "" {
		return t.spec.Name
	}
	return t.id.String()
}

// Spec returns the tier's hardware characteristics.
func (t *Tier) Spec() Spec { return t.spec }

// Capacity returns the usable capacity in bytes (whole 2MB frames).
func (t *Tier) Capacity() uint64 {
	return (t.spec.Capacity / addr.PageSize2M) * addr.PageSize2M
}

// Used returns the number of allocated bytes.
func (t *Tier) Used() uint64 { return t.used }

// Free returns the number of unallocated bytes.
func (t *Tier) Free() uint64 { return t.Capacity() - t.used }

// Alloc2M allocates one 2MB frame: the most recently freed frame if any,
// else the next frame above the bump pointer (tier base upward).
func (t *Tier) Alloc2M() (addr.Phys, error) {
	var fn uint64
	if n := len(t.freed2M); n > 0 {
		fn = t.freed2M[n-1]
		t.freed2M = t.freed2M[:n-1]
	} else if t.next2M < t.end2M {
		fn = t.next2M
		t.next2M++
	} else {
		return 0, fmt.Errorf("%w: %s tier full (%d bytes used)", ErrOutOfMemory, t.id, t.used)
	}
	t.used += addr.PageSize2M
	return addr.Phys2M(fn), nil
}

// Free2M releases a 2MB frame previously returned by Alloc2M.
func (t *Tier) Free2M(p addr.Phys) {
	if p.Base2M() != p {
		panic(fmt.Sprintf("mem: Free2M of unaligned address %s", p))
	}
	fn := p.FrameNum2M()
	if _, isBroken := t.broken[fn]; isBroken {
		panic(fmt.Sprintf("mem: Free2M of broken frame %s", p))
	}
	if fn >= t.next2M {
		panic(fmt.Sprintf("mem: Free2M of never-allocated frame %s", p))
	}
	t.freed2M = append(t.freed2M, fn)
	t.used -= addr.PageSize2M
}

// Alloc4K allocates one 4KB frame, breaking a 2MB frame if necessary.
func (t *Tier) Alloc4K() (addr.Phys, error) {
	for fn, cm := range t.broken {
		if cm.nFree > 0 {
			i := cm.take()
			t.used += addr.PageSize4K
			return addr.Phys2M(fn) + addr.Phys(uint64(i)*addr.PageSize4K), nil
		}
	}
	// Break a fresh 2MB frame.
	p, err := t.Alloc2M()
	if err != nil {
		return 0, err
	}
	t.used -= addr.PageSize2M // Alloc2M charged the full frame; re-charge per 4K
	fn := p.FrameNum2M()
	cm := newChildMap()
	t.broken[fn] = cm
	i := cm.take()
	t.used += addr.PageSize4K
	return addr.Phys2M(fn) + addr.Phys(uint64(i)*addr.PageSize4K), nil
}

// Free4K releases a 4KB frame previously returned by Alloc4K. When all 512
// children of the parent 2MB frame are free it coalesces back to the 2MB
// free list.
func (t *Tier) Free4K(p addr.Phys) {
	fn := p.FrameNum2M()
	cm, ok := t.broken[fn]
	if !ok {
		panic(fmt.Sprintf("mem: Free4K of address %s not in a broken frame", p))
	}
	i := int(uint64(p.Base4K()-p.Base2M()) / addr.PageSize4K)
	if !cm.put(i) {
		panic(fmt.Sprintf("mem: double free of 4K frame %s", p))
	}
	t.used -= addr.PageSize4K
	if cm.nFree == addr.PagesPerHuge {
		delete(t.broken, fn)
		t.freed2M = append(t.freed2M, fn)
	}
}

// StateBytes returns the tier allocator's resident simulator-state bytes:
// the freed-frame list and the broken-frame maps. The bump region costs
// nothing, which is what makes constructing terabyte tiers O(1).
func (t *Tier) StateBytes() uint64 {
	const perBroken = 8 /* map key */ + 8 /* ptr */ + 72 /* childMap */
	return uint64(cap(t.freed2M))*8 + uint64(len(t.broken))*perBroken + 64
}

// System is the full physical memory: an ordered tier hierarchy with one
// allocator per tier.
type System struct {
	tiers []*Tier
}

// NewSystem builds the paper's two-tier system from the given specs,
// indexed by TierID (Fast, Slow).
func NewSystem(fast, slow Spec) *System {
	s, err := NewHierarchy(fast, slow)
	if err != nil {
		panic(err) // unreachable: two specs always form a valid hierarchy
	}
	return s
}

// NewHierarchy builds an N-tier system from an ordered spec list, fastest
// first. Between 1 and MaxTiers tiers are supported.
func NewHierarchy(specs ...Spec) (*System, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mem: hierarchy needs at least one tier")
	}
	if len(specs) > MaxTiers {
		return nil, fmt.Errorf("mem: %d tiers exceed the physical map's %d-tier bound", len(specs), MaxTiers)
	}
	s := &System{tiers: make([]*Tier, len(specs))}
	for i, spec := range specs {
		s.tiers[i] = NewTier(TierID(i), spec)
	}
	return s, nil
}

// NumTiers returns the hierarchy depth.
func (s *System) NumTiers() int { return len(s.tiers) }

// Bottom returns the slowest (last) tier's identity.
func (s *System) Bottom() TierID { return TierID(len(s.tiers) - 1) }

// Tier returns the tier with the given identity. It panics with a
// descriptive message when id does not name a configured tier — indexing a
// nonexistent tier means a corrupt TierID or physical address upstream.
func (s *System) Tier(id TierID) *Tier {
	if id < 0 || int(id) >= len(s.tiers) {
		panic(fmt.Sprintf("mem: tier %d outside the configured %d-tier hierarchy", int(id), len(s.tiers)))
	}
	return s.tiers[id]
}

// Tiers returns all tiers, fastest first.
func (s *System) Tiers() []*Tier { return s.tiers }

// TierOf returns the tier owning physical address p, validated against the
// configured hierarchy: it panics descriptively if p falls in an address
// window no tier owns.
func (s *System) TierOf(p addr.Phys) TierID {
	id := TierOf(p)
	if int(id) >= len(s.tiers) {
		panic(fmt.Sprintf("mem: physical address %s maps to tier %d but only %d tiers are configured", p, int(id), len(s.tiers)))
	}
	return id
}

// Top returns the highest physical address any tier can hand out (0 for a
// hierarchy with no capacity).
func (s *System) Top() addr.Phys {
	var end uint64
	for _, t := range s.tiers {
		end = max(end, t.end2M)
	}
	if end == 0 {
		return 0
	}
	return addr.Phys2M(end) - 1
}

// StateBytes sums the allocator state of every tier.
func (s *System) StateBytes() uint64 {
	var b uint64
	for _, t := range s.tiers {
		b += t.StateBytes()
	}
	return b
}

// ReadLatency returns the device read latency for the tier owning p.
func (s *System) ReadLatency(p addr.Phys) int64 {
	return s.Tier(s.TierOf(p)).spec.ReadLatency
}

// WriteLatency returns the device write latency for the tier owning p.
func (s *System) WriteLatency(p addr.Phys) int64 {
	return s.Tier(s.TierOf(p)).spec.WriteLatency
}
