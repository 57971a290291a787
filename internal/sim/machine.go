// Package sim is the machine model: it composes the memory system, page
// table, TLB, LLC, page-walk model, virtualization layer, BadgerTrap and the
// migration engine into a single virtual-time simulator that workloads issue
// memory accesses against.
//
// The simulator is closed-loop: each access is charged its full latency
// (TLB, page walk, poison faults, cache, memory device) and the virtual
// clock advances by that latency divided by the eight threads, so throughput
// degradation emerges from the latency model exactly as wall-clock slowdown
// does on the paper's testbed.
package sim

import (
	"fmt"
	"math"

	"thermostat/internal/addr"
	"thermostat/internal/badgertrap"
	"thermostat/internal/cache"
	"thermostat/internal/chaos"
	"thermostat/internal/fault"
	"thermostat/internal/mem"
	"thermostat/internal/numa"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
	"thermostat/internal/tlb"
	"thermostat/internal/walk"
)

// SlowMemMode selects how accesses to the slow tier are costed.
type SlowMemMode int

// Slow-memory costing modes.
const (
	// EmulatedFault is the paper's methodology (§4.2): slow-tier data
	// physically sits in DRAM-speed memory and the ~1us BadgerTrap poison
	// fault on each TLB miss to a cold page provides the slow-memory
	// latency. Accesses that hit a transient TLB entry see DRAM speed
	// (the documented under-estimation); faults fire even for
	// cache-resident lines (the documented over-estimation).
	EmulatedFault SlowMemMode = iota
	// Device charges the slow tier's device read/write latency on LLC
	// misses, modeling real slow memory. Poison faults (when the policy
	// poisons pages for monitoring) are charged separately.
	Device
)

// String names the mode.
func (m SlowMemMode) String() string {
	switch m {
	case EmulatedFault:
		return "emulated-fault"
	case Device:
		return "device"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// The paper's testbed fixes these, and no experiment varies them.
const (
	// threads is the number of worker threads sharing the machine, the
	// paper's medium cloud instance: an access or compute time advances
	// the clock by its latency over threads.
	threads = 8
	// tlbHitNs and llcHitNs are the TLB and LLC hit latencies.
	tlbHitNs = 1
	llcHitNs = 30
	// virtBase is where region allocation starts (the 1 TB mark, 2MB
	// aligned).
	virtBase addr.Virt = 1 << 40
)

// Config assembles a machine.
type Config struct {
	// VM is the virtualization setup (default: huge host pages, the trap in
	// the guest).
	VM vmConfig
	// TLB sizes the translation caches (L2Entries must be at least
	// L1Entries: the hierarchy is inclusive).
	TLB tlb.Config
	// LLC sizes the last-level cache.
	LLC cache.Config
	// Walk parameterizes page-walk latency.
	Walk walk.Config
	// Tiers, when non-empty, is the ordered memory hierarchy (fastest
	// first, up to mem.MaxTiers entries); it takes precedence over
	// FastSpec/SlowSpec.
	Tiers []mem.Spec
	// FastSpec and SlowSpec size the two-tier (paper) configuration used
	// when Tiers is empty.
	FastSpec, SlowSpec mem.Spec
	// Mode selects slow-memory costing (default EmulatedFault).
	Mode SlowMemMode
	// FaultLatencyNs is the BadgerTrap poison-fault service time
	// (default 1000, the paper's ~1us).
	FaultLatencyNs int64
	// Recorder, when non-nil, receives telemetry events from every
	// instrumented component (machine, migrator, engine, daemons). Nil
	// (the default) compiles the instrumentation down to one nil check
	// per site.
	Recorder telemetry.Recorder
	// Chaos configures deterministic fault injection into the migration
	// and poisoning machinery. The zero value (all rates 0) installs no
	// injector at all, so default machines are bit-identical to pre-chaos
	// builds.
	Chaos chaos.Config
}

// DefaultConfig returns the paper's evaluated machine: KVM guest with huge
// pages at both levels, 64/1024-entry TLBs, 45MB LLC, 8 threads, BadgerTrap
// slow-memory emulation.
func DefaultConfig(fastBytes, slowBytes uint64) Config {
	return Config{
		VM:       defaultVMConfig(),
		TLB:      tlb.DefaultConfig(),
		LLC:      cache.DefaultConfig(),
		Walk:     walk.DefaultConfig(),
		FastSpec: mem.DefaultDRAM(fastBytes),
		SlowSpec: mem.DefaultSlow(slowBytes),
		Mode:     EmulatedFault,
	}
}

// DefaultTieredConfig returns the default machine over an arbitrary ordered
// memory hierarchy (fastest first), e.g. DRAM/CXL/NVM. In EmulatedFault
// mode every non-top tier is emulated with poison faults at the configured
// fault latency; Device mode charges each tier's own device latency.
func DefaultTieredConfig(tiers ...mem.Spec) Config {
	cfg := DefaultConfig(0, 0)
	cfg.Tiers = tiers
	return cfg
}

// tierSpecs returns the ordered hierarchy a config will build.
func (c Config) tierSpecs() []mem.Spec {
	if len(c.Tiers) > 0 {
		return c.Tiers
	}
	return []mem.Spec{c.FastSpec, c.SlowSpec}
}

// Metrics is a snapshot of machine-level counters.
type Metrics struct {
	Accesses uint64
	// SlowAccesses counts accesses served by any non-top tier.
	SlowAccesses uint64
	// TierAccesses counts accesses per tier, indexed by mem.TierID.
	TierAccesses []uint64
	PoisonFaults uint64
	TLB          tlb.Stats
	LLC          cache.Stats
	// AccessLatency aggregates per-access latency in nanoseconds.
	AccessLatency *stats.Histogram
	// ClockNs is the current virtual time.
	ClockNs int64
	// MigrationBytes is the total inter-tier traffic from the machine's
	// shared meter (all kinds, all tier pairs).
	MigrationBytes uint64
}

// Machine is the composed simulator.
type Machine struct {
	cfg Config

	sys   *mem.System
	pt    *pagetable.Table
	tl    *tlb.TLB
	llc   *cache.Cache
	guest *virtualMachine
	trap  *badgertrap.Trap
	mig   *numa.Migrator
	meter *mem.Meter

	// rec is the telemetry sink; nil (the default) means telemetry is off
	// and every instrumentation site reduces to one nil check.
	rec telemetry.Recorder
	// pending stages the access path's events, in order, until they are
	// handed to rec at a point where no caller code runs beside the
	// simulation goroutine (flushEvents); it is empty at every boundary.
	pending []telemetry.Event

	// chaos is the fault injector; nil (the default) means chaos is off
	// and every injection site reduces to one nil check.
	chaos *chaos.Injector

	clock int64
	next  addr.Virt // bump pointer for region allocation

	// tierReadLat/tierWriteLat are the per-tier device latencies, indexed
	// by mem.TierID — precomputed at construction so the access path reads
	// one slice element instead of chasing Tier→Spec per miss. fastReadLat
	// caches the top tier's read latency for the EmulatedFault fill path.
	tierReadLat  []int64
	tierWriteLat []int64
	fastReadLat  int64
	// walkLat[d] is the latency of a page walk whose guest dimension
	// touched d levels, from the walk model at construction.
	walkLat [5]int64
	// maxAccessLat is a lazily computed conservative upper bound on one
	// access's modeled latency (see maxOpAdvanceNs).
	maxAccessLat int64

	accesses     stats.Counter
	slowAccesses stats.Counter
	tierAccesses []stats.Counter // indexed by mem.TierID
	latHist      *stats.Histogram

	// daemonNs accumulates policy CPU time (scans, sorting) which the
	// paper runs on spare cores; it is tracked but not charged to the
	// application's critical path.
	daemonNs int64

	// Ground-truth per-2MB-page access (LLC miss) counting — Figure 2's
	// y-axis, which no real x86 can observe but a simulator can. Counts
	// live in a dense slice indexed by 2MB region number above virtBase
	// (regions come from a 2MB-aligned bump allocator, so the space is
	// contiguous); pcLow catches the stray below-base address so the
	// map-based semantics are preserved exactly.
	pcEnabled bool
	pcCounts  []uint64
	pcLow     map[addr.Virt]uint64

	// missHook, when set, observes every LLC miss and returns extra
	// latency to charge the access — the attachment point for the §6.1
	// hardware-assisted access counters (CM-bit, PEBS). missMaxNs is its
	// declared per-event maximum, which maxOpAdvanceNs counts in.
	missHook  func(v addr.Virt, write bool) int64
	missMaxNs int64
}

// New validates cfg and builds a machine.
func New(cfg Config) (*Machine, error) {
	if cfg.FaultLatencyNs <= 0 {
		cfg.FaultLatencyNs = badgertrap.DefaultFaultLatencyNs
	}
	var err error
	if cfg.TLB, err = cfg.TLB.Normalize(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	wm, err := walk.NewModel(cfg.Walk)
	if err != nil {
		return nil, err
	}
	guest := &virtualMachine{cfg: cfg.VM}
	sys, err := mem.NewHierarchy(cfg.tierSpecs()...)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.LLC, err = cfg.LLC.Normalize(sys.Top()); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	m := &Machine{
		cfg:          cfg,
		sys:          sys,
		pt:           pagetable.New(),
		tl:           tlb.New(cfg.TLB),
		llc:          cache.New(cfg.LLC),
		guest:        guest,
		next:         virtBase,
		latHist:      stats.NewHistogram(),
		tierAccesses: make([]stats.Counter, sys.NumTiers()),
	}
	m.tierReadLat = make([]int64, sys.NumTiers())
	m.tierWriteLat = make([]int64, sys.NumTiers())
	for t := 0; t < sys.NumTiers(); t++ {
		spec := sys.Tier(mem.TierID(t)).Spec()
		m.tierReadLat[t] = spec.ReadLatency
		m.tierWriteLat[t] = spec.WriteLatency
	}
	m.fastReadLat = m.tierReadLat[mem.Fast]
	for d := 1; d < len(m.walkLat); d++ {
		m.walkLat[d] = wm.Latency(guest.Nested(), d, guest.HostWalkDepth())
	}
	// A block translated ahead keeps each op's translation latency in 32 bits.
	if most := max(tlbHitNs, m.walkLat[walk.Depth4K]+cfg.FaultLatencyNs+guest.faultOverheadNs()); most > math.MaxInt32 {
		return nil, fmt.Errorf("sim: a translation can take %d ns, more than the %d ns a block records", most, math.MaxInt32)
	}
	m.trap = badgertrap.New(m.pt, m.tl, cfg.FaultLatencyNs)
	// The machine owns one traffic meter and shares it with the migrator,
	// so every migration — whoever initiates it — lands in the same
	// traffic matrix that Metrics and the N-tier reports read.
	m.meter = mem.NewMeter(0)
	m.mig = numa.NewMigrator(m.sys, m.pt, m.tl, m.meter)
	if inj := chaos.New(cfg.Chaos); inj != nil {
		m.chaos = inj
		m.mig.SetInjector(inj, func() int64 { return m.clock })
	}
	if cfg.Recorder != nil {
		m.SetRecorder(cfg.Recorder)
	}
	return m, nil
}

// Component accessors, used by policies and tests.

// PageTable returns the guest page table.
func (m *Machine) PageTable() *pagetable.Table { return m.pt }

// TLB returns the translation caches.
func (m *Machine) TLB() *tlb.TLB { return m.tl }

// LLC returns the last-level cache model.
func (m *Machine) LLC() *cache.Cache { return m.llc }

// Memory returns the tiered memory system.
func (m *Machine) Memory() *mem.System { return m.sys }

// Trap returns the BadgerTrap instance.
func (m *Machine) Trap() *badgertrap.Trap { return m.trap }

// Migrator returns the page migration engine.
func (m *Machine) Migrator() *numa.Migrator { return m.mig }

// Meter returns the machine's inter-tier traffic meter, shared with the
// migrator.
func (m *Machine) Meter() *mem.Meter { return m.meter }

// Recorder returns the telemetry sink (nil when telemetry is off). Policies
// and daemons emit their events through it, guarding with a nil check.
func (m *Machine) Recorder() telemetry.Recorder { return m.rec }

// SetRecorder installs (or, with nil, removes) the telemetry sink and hooks
// the migrator so every page move emits a Migrated event stamped with the
// machine's virtual clock. Events the access path has staged go first to
// the Recorder they were recorded under.
func (m *Machine) SetRecorder(r telemetry.Recorder) {
	m.flushEvents()
	m.rec = r
	if r == nil {
		m.mig.SetObserver(nil)
		return
	}
	m.mig.SetObserver(func(v addr.Virt, src, dst mem.TierID, bytes uint64, kind mem.TrafficKind, costNs int64) {
		r.Event(telemetry.Event{
			Kind: telemetry.KindMigrated, TimeNs: m.clock, Page: v,
			FromTier: int8(src), ToTier: int8(dst), Bytes: bytes,
		})
	})
}

// Injector returns the chaos fault injector (nil when chaos is off).
func (m *Machine) Injector() *chaos.Injector { return m.chaos }

// FaultReport returns the machine-level chaos summary: injected-fault counts
// from the injector plus migration-transaction rollbacks from the migrator.
// Policy layers (core.Engine) add their retry/quarantine counts on top.
func (m *Machine) FaultReport() chaos.Report {
	r := m.chaos.Report()
	r.RolledBack = m.mig.Rollbacks()
	return r
}

// Guest returns the virtualization layer.
func (m *Machine) Guest() *virtualMachine { return m.guest }

// VPID returns the guest's TLB tag.
func (m *Machine) VPID() tlb.VPID { return m.guest.vpid() }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Clock returns the virtual time in nanoseconds.
func (m *Machine) Clock() int64 { return m.clock }

// AdvanceClock adds application compute time (divided across threads).
func (m *Machine) AdvanceClock(ns int64) {
	m.clock += ns / threads
}

// AdvanceClockTo moves the clock forward to t — a stretch in which the
// machine is idle, so unlike AdvanceClock's compute time it is not divided
// across threads. A t that is not ahead of the clock is a no-op.
func (m *Machine) AdvanceClockTo(t int64) {
	if t > m.clock {
		m.clock = t
	}
}

// ChargeDaemon accounts policy CPU time off the application critical path.
func (m *Machine) ChargeDaemon(ns int64) { m.daemonNs += ns }

// DaemonNs returns accumulated policy CPU time.
func (m *Machine) DaemonNs() int64 { return m.daemonNs }

// AllocRegion maps size bytes (rounded up to whole pages) of fresh virtual
// address space backed by the fast tier. With huge=true the region is backed
// by 2MB THP mappings; otherwise by 4KB mappings (THP disabled, or
// page-cache pages without hugetmpfs).
func (m *Machine) AllocRegion(size uint64, huge bool) (addr.Range, error) {
	if size == 0 {
		return addr.Range{}, fmt.Errorf("sim: AllocRegion of zero size")
	}
	// Round the region itself to 2MB so the bump pointer stays aligned.
	rounded := (size + addr.PageSize2M - 1) / addr.PageSize2M * addr.PageSize2M
	start := m.next
	r := addr.NewRange(start, size)
	fast := m.sys.Tier(mem.Fast)
	if huge {
		for v := start; v < start+addr.Virt(rounded); v += addr.Virt(addr.PageSize2M) {
			p, err := fast.Alloc2M()
			if err != nil {
				return addr.Range{}, fmt.Errorf("sim: AllocRegion: %w", err)
			}
			if err := m.pt.Map2M(v, p, pagetable.Writable); err != nil {
				return addr.Range{}, err
			}
		}
	} else {
		nPages := (size + addr.PageSize4K - 1) / addr.PageSize4K
		for i := uint64(0); i < nPages; i++ {
			v := start + addr.Virt(i*addr.PageSize4K)
			p, err := fast.Alloc4K()
			if err != nil {
				return addr.Range{}, fmt.Errorf("sim: AllocRegion: %w", err)
			}
			if err := m.pt.Map4K(v, p, pagetable.Writable); err != nil {
				return addr.Range{}, err
			}
		}
	}
	m.next = start + addr.Virt(rounded)
	return r, nil
}

// FreeRegion unmaps every leaf in r and returns its frames to their owning
// tiers — the munmap path a departing tenant takes. Poisoned leaves are
// disarmed, split huge pages are collapsed back to their 2MB allocation
// grain, the TLB range is shot down (including transient BadgerTrap
// translations), and the trap's per-page fault counts for the range are
// dropped. The LLC is deliberately not flushed: real kernels do not flush
// caches on munmap, and recycled frames genuinely keep their lines warm.
//
// Returns the freed bytes per tier, indexed by mem.TierID. Freed virtual
// addresses are never reused (the region allocator only bumps forward).
func (m *Machine) FreeRegion(r addr.Range) ([]uint64, error) {
	type leafInfo struct {
		base addr.Virt
		lvl  pagetable.Level
		poi  bool
		spl  bool
	}
	var leaves []leafInfo
	m.pt.ScanRange(r, func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		leaves = append(leaves, leafInfo{
			base: base, lvl: lvl,
			poi: e.Has(pagetable.Poisoned),
			spl: e.Has(pagetable.SplitSampled),
		})
	})
	// Disarm monitoring, then restore sampled pages to their 2MB allocation
	// grain so each Unmap returns exactly one allocator block.
	var collapse []addr.Virt
	for _, l := range leaves {
		if l.poi {
			if err := m.trap.Unpoison(l.base); err != nil {
				return nil, fmt.Errorf("sim: FreeRegion: %w", err)
			}
		}
		if hv := l.base.Base2M(); l.spl &&
			(len(collapse) == 0 || collapse[len(collapse)-1] != hv) {
			collapse = append(collapse, hv)
		}
	}
	for _, hv := range collapse {
		if err := m.pt.Collapse(hv); err != nil {
			return nil, fmt.Errorf("sim: FreeRegion: %w", err)
		}
	}
	// Re-scan (the leaf set changed shape), then unmap and free.
	var final []leafInfo
	m.pt.ScanRange(r, func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		final = append(final, leafInfo{base: base, lvl: lvl})
	})
	freed := make([]uint64, m.sys.NumTiers())
	for _, l := range final {
		e, lvl, err := m.pt.Unmap(l.base)
		if err != nil {
			return nil, fmt.Errorf("sim: FreeRegion: %w", err)
		}
		tier := m.sys.TierOf(e.Frame)
		if lvl == pagetable.Level2M {
			m.sys.Tier(tier).Free2M(e.Frame)
			freed[tier] += addr.PageSize2M
		} else {
			m.sys.Tier(tier).Free4K(e.Frame)
			freed[tier] += addr.PageSize4K
		}
	}
	m.tl.InvalidateRange(r, m.VPID())
	m.trap.ForgetRange(r)
	return freed, nil
}

// Demote moves the 2MB region containing v one tier down the hierarchy and
// arms PMD-grain poisoning on it. The poison serves double duty: in
// EmulatedFault mode it is the slow-memory emulation itself (each TLB miss
// to the page costs a ~1us fault, per the paper's methodology), and in both
// modes its fault counts are the §3.5 access monitoring policies read. In
// the paper's two-tier configuration this is exactly fast→slow. Returns
// the migration cost in nanoseconds.
func (m *Machine) Demote(v addr.Virt) (int64, error) {
	src, err := m.mig.TierOfPage(v.Base2M())
	if err != nil {
		return 0, err
	}
	if src >= m.sys.Bottom() {
		return 0, fmt.Errorf("sim: %s already in the bottom (%s) tier", v.Base2M(), m.sys.Tier(src).Name())
	}
	// Whether monitoring must be armed is decided up front so an injected
	// poison failure strikes before any state changes (the demotion is then
	// a clean no-op, trivially transactional).
	needArm := !m.trap.IsPoisoned(v.Base2M())
	if needArm && m.chaos != nil {
		if f := m.chaos.Inject(chaos.PoisonArm, m.clock); f != nil {
			return 0, fmt.Errorf("sim: Demote %s: %w", v.Base2M(), f)
		}
	}
	cost, err := m.mig.MoveHuge(v, src+1, m.VPID(), mem.Demotion)
	if err != nil {
		return 0, err
	}
	if !needArm {
		// Already monitored (page was below the top tier before); the
		// poison carries over to the new frame's mapping unchanged.
		return cost, nil
	}
	if err := m.trap.Poison(v.Base2M(), m.VPID()); err != nil {
		return 0, err
	}
	return cost, nil
}

// Promote moves the 2MB region containing v one tier up the hierarchy. The
// poison is disarmed for the move and re-armed when the destination is
// still below the top tier (monitoring and slow-memory emulation continue
// there); a page reaching the fast tier stops being monitored. In the
// paper's two-tier configuration this is exactly slow→fast. Returns the
// migration cost in nanoseconds.
func (m *Machine) Promote(v addr.Virt) (int64, error) {
	base := v.Base2M()
	src, err := m.mig.TierOfPage(base)
	if err != nil {
		return 0, err
	}
	if src == mem.Fast {
		return 0, fmt.Errorf("sim: %s already in the top (%s) tier", base, m.sys.Tier(mem.Fast).Name())
	}
	armed := m.trap.IsPoisoned(base)
	if m.chaos != nil {
		// Both poison-site faults strike before any state changes, so a
		// failed promotion is a clean no-op.
		if armed {
			if f := m.chaos.Inject(chaos.PoisonDisarm, m.clock); f != nil {
				return 0, fmt.Errorf("sim: Promote %s: %w", base, f)
			}
		}
		if src-1 != mem.Fast {
			if f := m.chaos.Inject(chaos.PoisonArm, m.clock); f != nil {
				return 0, fmt.Errorf("sim: Promote %s: %w", base, f)
			}
		}
	}
	if armed {
		if err := m.trap.Unpoison(base); err != nil {
			return 0, err
		}
	}
	cost, err := m.mig.MoveHuge(base, src-1, m.VPID(), mem.Promotion)
	if err != nil {
		// The move rolled back; re-arm the poison disarmed above so a
		// failed promotion leaves monitoring (and slow-memory emulation)
		// exactly as it was.
		if armed {
			if perr := m.trap.Poison(base, m.VPID()); perr != nil {
				return 0, fmt.Errorf("sim: Promote %s: re-arm after failed move: %v (move error: %w)", base, perr, err)
			}
		}
		return 0, err
	}
	if src-1 != mem.Fast {
		if err := m.trap.Poison(base, m.VPID()); err != nil {
			return 0, err
		}
	}
	return cost, nil
}

// Access simulates one memory access to v, charging the full latency path
// and advancing the virtual clock by latency/threads. Returns the modeled
// latency of this access. The access's telemetry event, if any, reaches the
// Recorder before Access returns. It is the per-op path: translate, then
// charge, as a Scheduler block issues each op.
func (m *Machine) Access(v addr.Virt, write bool) (int64, error) {
	pa, lat, faulted, err := m.translate(v, write, m.guest.vpid())
	if err == nil {
		lat, err = m.charge(v, write, pa, lat, faulted)
	}
	m.flushEvents()
	return lat, err
}

// flushEvents hands the access path's staged events to the Recorder, in
// the order they were recorded. The Scheduler calls it only while no block
// is drawn ahead, so the Recorder never runs beside an app's NextBatch.
func (m *Machine) flushEvents() {
	for _, e := range m.pending {
		m.rec.Event(e)
	}
	m.pending = m.pending[:0]
}

// translate is the access path's MMU half: TLB lookup, hardware page walk
// (which sets the leaf's A/D bits) and poison-fault dispatch to BadgerTrap.
// It returns the physical address of the accessed byte, the translation's
// latency, and whether a poison fault was taken. It owns the TLB, the page
// table and the trap, and reads neither the clock nor anything charge
// writes, so a Scheduler may translate blocks ahead on another goroutine.
func (m *Machine) translate(v addr.Virt, write bool, vpid tlb.VPID) (addr.Phys, int64, bool, error) {
	if res, ok := m.tl.Lookup(v, vpid); ok {
		return physAddr(v, res.Frame, res.Level), tlbHitNs, false, nil
	}
	// Hardware page walk.
	wr := m.pt.Walk(v, write)
	if !wr.Found {
		return 0, 0, false, fmt.Errorf("sim: access to unmapped %s", v)
	}
	lat := m.walkLat[wr.Depth]
	if !wr.Poisoned {
		m.tl.Fill(v, wr.Level, wr.Entry.Frame, vpid)
		return physAddr(v, wr.Entry.Frame, wr.Level), lat, false, nil
	}
	// Protection fault: BadgerTrap services it (counts the access,
	// installs a transient translation, re-poisons).
	fl, err := m.trap.Handle(fault.Fault{Kind: fault.Poison, Virt: v, Write: write, VPID: vpid})
	if err != nil {
		return 0, 0, false, err
	}
	res, ok := m.tl.Lookup(v, vpid)
	if !ok {
		return 0, 0, false, fmt.Errorf("sim: fault handler left %s untranslated", v)
	}
	return physAddr(v, res.Frame, res.Level), lat + fl + m.guest.faultOverheadNs(), true, nil
}

// physAddr is the physical address of v's byte in the leaf frame at lvl.
func physAddr(v addr.Virt, frame addr.Phys, lvl pagetable.Level) addr.Phys {
	if lvl == pagetable.Level2M {
		return frame + addr.Phys(v.Offset2M())
	}
	return frame + addr.Phys(v.Offset4K())
}

// charge is the access path's memory half, given translate's results for
// v: the tier counters, the LLC, ground-truth page counts, the miss hook,
// the device latency; then the access count, the latency histogram and the
// virtual clock. It returns the access's whole latency. It calls no
// Recorder: a poison fault's event, stamped with the clock at the access,
// is staged in pending for flushEvents.
func (m *Machine) charge(v addr.Virt, write bool, pa addr.Phys, lat int64, faulted bool) (int64, error) {
	if faulted && m.rec != nil {
		m.pending = append(m.pending, telemetry.Event{
			Kind: telemetry.KindFaultInjected, TimeNs: m.clock,
			Page: v.Base4K(), Count: 1,
		})
	}
	tier := m.sys.TierOf(pa)
	m.tierAccesses[tier].Inc()
	if tier != mem.Fast {
		m.slowAccesses.Inc()
	}

	// Cache hierarchy and memory device.
	if m.llc.Access(pa) {
		lat += llcHitNs
	} else {
		if m.pcEnabled {
			m.countPage(v)
		}
		if m.missHook != nil {
			h := m.missHook(v, write)
			if h < 0 || h > m.missMaxNs {
				return 0, fmt.Errorf("sim: miss hook charged %d ns at %s, outside its declared bound of %d ns", h, v, m.missMaxNs)
			}
			lat += h
		}
		switch {
		case m.cfg.Mode == EmulatedFault && tier != mem.Fast:
			// Paper methodology: data physically in DRAM; the poison
			// fault supplied the emulated slow latency. Charge DRAM
			// device time for the actual fill.
			lat += m.fastReadLat
		case write:
			lat += m.tierWriteLat[tier]
		default:
			lat += m.tierReadLat[tier]
		}
	}

	// lat ≥ 0 (every term is a latency), so it divides as a uint64.
	m.accesses.Inc()
	m.latHist.Observe(uint64(lat))
	m.clock += int64(uint64(lat) / threads)
	return lat, nil
}

// Req is one memory access request, the element type of App.NextBatch.
type Req struct {
	V     addr.Virt
	Write bool
}

// maxOpAdvanceNs bounds how far one access plus computeNs of compute can
// advance the clock, a miss hook counted at its declared maximum: the U
// blockOps sizes blocks with. Overestimating only shrinks blocks.
func (m *Machine) maxOpAdvanceNs(computeNs int64) int64 {
	if m.maxAccessLat == 0 {
		walkMax := m.walkLat[walk.Depth4K]
		devMax := int64(0)
		for t := range m.tierReadLat {
			if m.tierReadLat[t] > devMax {
				devMax = m.tierReadLat[t]
			}
			if m.tierWriteLat[t] > devMax {
				devMax = m.tierWriteLat[t]
			}
		}
		m.maxAccessLat = tlbHitNs + walkMax + m.cfg.FaultLatencyNs +
			m.guest.faultOverheadNs() + llcHitNs + m.missMaxNs + devMax
	}
	return m.maxAccessLat/threads + computeNs/threads + 1
}

// MaxBlockOps caps a Scheduler block, and so is the most requests an
// App's NextBatch is asked for at once.
const MaxBlockOps = 2048

// blockOps sizes one Scheduler block: the largest n, at most MaxBlockOps,
// with (n-1)*maxAdv < limit-now, so that with maxAdv an upper bound on one
// op's clock advance only op n can reach limit — the block is exactly n
// iterations of a loop that tests limit after every op. A limit already due
// gives a block of one.
func (m *Machine) blockOps(limit, maxAdv int64) int {
	if limit <= m.clock {
		return 1
	}
	return int(min((limit-m.clock-1)/maxAdv, MaxBlockOps-1) + 1)
}

// SetMissHook installs an observer invoked on every LLC miss; its return
// value, at most maxNs, is added to the access latency. A charge outside
// [0, maxNs] fails the access. Pass nil to remove. Used by the §6.1
// hardware-assisted access-counting models; the Scheduler reads the bound
// afresh for every block. The hook runs inside Machine.charge, while later
// blocks may be drawn and translated ahead on other goroutines, so it must
// share no state with an App or with translation (the TLB, the page table,
// the trap): the CM bit and PEBS touch only their own maps. Install it
// before a run or at a boundary.
func (m *Machine) SetMissHook(h func(v addr.Virt, write bool) int64, maxNs int64) {
	m.missHook, m.missMaxNs = h, maxNs
	m.maxAccessLat = 0 // recomputed with the new bound
}

// EnablePageCounts turns on ground-truth per-2MB-page memory access (LLC
// miss) counting. This is simulator-only instrumentation: the paper's
// motivation is precisely that real x86 hardware cannot observe this.
func (m *Machine) EnablePageCounts() { m.pcEnabled = true }

// countPage records one LLC miss against the 2MB page containing v. Regions
// are bump-allocated from virtBase, so the common case is one bounds check and
// a slice increment; addresses below the base (never produced by
// AllocRegion) fall back to a map to keep semantics identical.
func (m *Machine) countPage(v addr.Virt) {
	if v >= virtBase {
		idx := uint64(v-virtBase) >> addr.PageShift2M
		if idx >= uint64(len(m.pcCounts)) {
			grown := make([]uint64, idx+1, (idx+1)*2)
			copy(grown, m.pcCounts)
			m.pcCounts = grown
		}
		m.pcCounts[idx]++
		return
	}
	if m.pcLow == nil {
		m.pcLow = make(map[addr.Virt]uint64)
	}
	m.pcLow[v.Base2M()]++
}

// PageCounts returns a copy of the ground-truth per-2MB-page access counts
// since EnablePageCounts (nil if disabled). Only pages with at least one
// recorded miss appear, matching the map-increment implementation this
// reconstructs.
func (m *Machine) PageCounts() map[addr.Virt]uint64 {
	if !m.pcEnabled {
		return nil
	}
	out := make(map[addr.Virt]uint64, len(m.pcCounts)+len(m.pcLow))
	for i, c := range m.pcCounts {
		if c != 0 {
			out[virtBase+addr.Virt(uint64(i)<<addr.PageShift2M)] = c
		}
	}
	for k, c := range m.pcLow {
		out[k] = c
	}
	return out
}

// StateBytes estimates the machine's footprint-dependent simulator state:
// page table (radix nodes, PD-slot index), tier allocators, BadgerTrap
// fault counts, and the ground-truth page counters. Fixed-size components
// (TLB, LLC, walk model) are excluded — the scaling sweep tracks how state
// grows with simulated footprint, and they don't.
func (m *Machine) StateBytes() uint64 {
	return m.pt.StateBytes() + m.sys.StateBytes() + m.trap.StateBytes() +
		uint64(cap(m.pcCounts))*8 + uint64(len(m.pcLow))*24
}

// Metrics returns a snapshot of the machine counters. The histogram is the
// live aggregation; callers must not mutate it.
func (m *Machine) Metrics() Metrics {
	perTier := make([]uint64, len(m.tierAccesses))
	for i := range m.tierAccesses {
		perTier[i] = m.tierAccesses[i].Value()
	}
	return Metrics{
		Accesses:       m.accesses.Value(),
		SlowAccesses:   m.slowAccesses.Value(),
		TierAccesses:   perTier,
		PoisonFaults:   m.trap.TotalFaults(),
		TLB:            m.tl.Stats(),
		LLC:            m.llc.Stats(),
		AccessLatency:  m.latHist,
		ClockNs:        m.clock,
		MigrationBytes: m.meter.TotalBytes(),
	}
}
