// Package telemetry is the simulator's structured instrumentation layer:
// typed events stamped in virtual time, per-epoch metric snapshots held in a
// bounded ring buffer, and exporters (Chrome trace_event JSON, JSONL, a
// human-readable epoch table).
//
// Design constraints (see DESIGN.md "Telemetry"):
//
//   - Zero overhead when disabled. Instrumentation sites hold a Recorder
//     interface that is nil by default and guard every emission with a single
//     nil check; no event struct is built on the disabled path.
//
//   - Virtual-time determinism. Events carry the simulator's virtual clock,
//     never wall time, and every simulation owns its own Recorder — so two
//     runs of the same seeded configuration produce byte-identical exports
//     regardless of how many runs execute concurrently around them.
//
//   - Bounded memory. Events are capped (drops are counted, deterministic)
//     and epoch snapshots live in a fixed-size ring that keeps the most
//     recent epochs.
package telemetry

import "thermostat/internal/addr"

// Kind discriminates event types.
type Kind uint8

// Event kinds. EpochStart/EpochEnd bracket one policy interval; the rest are
// decision-level events from the engine, migrator, trap and daemons.
const (
	// KindEpochStart opens epoch Event.Epoch at Event.TimeNs.
	KindEpochStart Kind = iota
	// KindEpochEnd closes the current epoch.
	KindEpochEnd
	// KindPageSampled marks a huge page entering the sampling pipeline
	// (split + poison). Cold reports whether it was already classified cold.
	KindPageSampled
	// KindClassified records one classification decision: Page's estimated
	// access rate (Rate) and the verdict (Cold).
	KindClassified
	// KindMigrated records one inter-tier page move: FromTier → ToTier,
	// Bytes moved.
	KindMigrated
	// KindTLBMiss is the per-epoch TLB-miss summary (Count = misses in the
	// closing epoch). Per-miss events would swamp the trace; the simulator
	// aggregates.
	KindTLBMiss
	// KindFaultInjected records one BadgerTrap poison fault serviced on the
	// access path.
	KindFaultInjected
	// KindHugePageSplit records a 2MB mapping split into 4KB children.
	KindHugePageSplit
	// KindHugePageCollapse records 512 children collapsed back to one 2MB
	// mapping (the poison tracker restoring a sampled page).
	KindHugePageCollapse
	// KindChaosFault records one injected chaos fault observed by the
	// policy: Site identifies the injection point, Count the attempt number
	// it struck, Permanent whether retrying is futile.
	KindChaosFault
	// KindTenantArrived records a tenant admitted to a fleet run (Tenant
	// names it, Bytes is its initial DRAM grant).
	KindTenantArrived
	// KindTenantDeparted records a tenant torn down mid-run (Bytes is the
	// memory it released).
	KindTenantDeparted
	// KindGrantChanged records the fleet arbiter revising one tenant's DRAM
	// grant (Bytes is the new grant).
	KindGrantChanged
	nKinds
)

// String names the kind (also the Chrome-trace event name).
func (k Kind) String() string {
	switch k {
	case KindEpochStart:
		return "epoch-start"
	case KindEpochEnd:
		return "epoch-end"
	case KindPageSampled:
		return "page-sampled"
	case KindClassified:
		return "classified"
	case KindMigrated:
		return "migrated"
	case KindTLBMiss:
		return "tlb-miss-summary"
	case KindFaultInjected:
		return "fault-injected"
	case KindHugePageSplit:
		return "huge-split"
	case KindHugePageCollapse:
		return "huge-collapse"
	case KindChaosFault:
		return "chaos-fault"
	case KindTenantArrived:
		return "tenant-arrived"
	case KindTenantDeparted:
		return "tenant-departed"
	case KindGrantChanged:
		return "grant-changed"
	default:
		return "unknown"
	}
}

// Event is one structured simulation event. Fields beyond Kind and TimeNs
// are kind-specific; unused fields stay zero.
type Event struct {
	Kind   Kind
	TimeNs int64 // virtual time
	Epoch  uint64
	Page   addr.Virt // subject page base (0 when not page-scoped)
	// FromTier and ToTier are migration endpoints (KindMigrated only).
	FromTier int8
	ToTier   int8
	// Bytes is a data volume (migration size).
	Bytes uint64
	// Count is a kind-specific tally (faults, misses).
	Count uint64
	// Rate is an access-rate estimate in events/sec (KindClassified).
	Rate float64
	// Cold is the classification verdict or prior state.
	Cold bool
	// Site is the chaos injection site (KindChaosFault only; numeric value
	// of chaos.Site).
	Site uint8
	// Permanent marks a permanent injected fault (KindChaosFault only).
	Permanent bool
	// Tenant names the fleet tenant the event concerns (tenant lifecycle
	// and grant events only; empty otherwise).
	Tenant string
}

// Snapshot is one epoch's metric snapshot, built from machine counter deltas
// at the closing policy tick. Its fields, in order, with their tags, are
// WriteJSONL's schema. The per-epoch counters among them are the rows of
// Counters; the rest are the epoch's bounds, gauges read at epoch end, and
// the confusion cells.
type Snapshot struct {
	Epoch   uint64 `json:"epoch"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`

	// Accesses and SlowAccesses are access counts within the epoch;
	// TierAccesses breaks them down per tier (indexed by mem.TierID).
	Accesses     uint64   `json:"accesses"`
	SlowAccesses uint64   `json:"slow_accesses"`
	TierAccesses []uint64 `json:"tier_accesses,omitempty"`
	// TierOccupancy is each tier's used bytes at epoch end.
	TierOccupancy []uint64 `json:"tier_occupancy,omitempty"`

	TLBMisses    uint64 `json:"tlb_misses"`
	LLCMisses    uint64 `json:"llc_misses"`
	PoisonFaults uint64 `json:"poison_faults"`
	// PoisonedPages is the number of leaf mappings armed for fault
	// interception at epoch end.
	PoisonedPages uint64 `json:"poisoned_pages"`

	// MigrationBytes, Demotions and Promotions are inter-tier traffic
	// within the epoch (page counts at 2MB grain).
	MigrationBytes uint64 `json:"migration_bytes"`
	Demotions      uint64 `json:"demotions"`
	Promotions     uint64 `json:"promotions"`

	// ColdBytes/HotBytes are the policy's classification at epoch end.
	ColdBytes uint64 `json:"cold_bytes"`
	HotBytes  uint64 `json:"hot_bytes"`

	// Classification confusion vs. LLC ground truth, valid only when the
	// machine's page counting is enabled and the policy exposes its cold
	// set (ConfusionValid). A page is "truly accessed" if it took at least
	// one LLC miss within the epoch.
	ConfusionValid bool   `json:"confusion_valid,omitempty"`
	ColdIdle       uint64 `json:"cold_idle,omitempty"`     // classified cold, truly idle   (correct)
	ColdAccessed   uint64 `json:"cold_accessed,omitempty"` // classified cold, truly active (false cold: pays slow-mem)
	HotIdle        uint64 `json:"hot_idle,omitempty"`      // classified hot, truly idle    (missed saving)
	HotAccessed    uint64 `json:"hot_accessed,omitempty"`  // classified hot, truly active  (correct)

	// Chaos/robustness counters within the epoch: injected faults, retried
	// migration attempts, rolled-back migration transactions, and pages
	// newly quarantined. All zero, and omitted from JSONL so uninjected
	// runs keep their pre-chaos byte layout, when no chaos injector is
	// installed and no migration failed.
	FaultsInjected     uint64 `json:"chaos_injected,omitempty"`
	FaultsPermanent    uint64 `json:"chaos_permanent,omitempty"`
	MigrationRetries   uint64 `json:"migration_retries,omitempty"`
	MigrationRollbacks uint64 `json:"migration_rollbacks,omitempty"`
	PagesQuarantined   uint64 `json:"pages_quarantined,omitempty"`
}

// counter is one per-epoch counter of Snapshot: its JSONL key, the
// Prometheus counter family that sums it over a run's epochs, that
// family's help text, and the field itself.
type counter struct {
	Key    string
	Family string
	Help   string
	Of     func(*Snapshot) *uint64
}

// Counters lists Snapshot's per-epoch counters in JSONL order: the schema
// that the epoch delta (Sub), the live totals (Add) and the /metrics
// counter families all iterate. A new counter is one tagged Snapshot field
// and one row here.
var Counters = []counter{
	{"accesses", "thermostat_accesses_total", "Memory accesses executed.",
		func(s *Snapshot) *uint64 { return &s.Accesses }},
	{"slow_accesses", "thermostat_slow_accesses_total", "Accesses served from non-top tiers.",
		func(s *Snapshot) *uint64 { return &s.SlowAccesses }},
	{"tlb_misses", "thermostat_tlb_misses_total", "Simulated TLB misses.",
		func(s *Snapshot) *uint64 { return &s.TLBMisses }},
	{"llc_misses", "thermostat_llc_misses_total", "Simulated LLC misses.",
		func(s *Snapshot) *uint64 { return &s.LLCMisses }},
	{"poison_faults", "thermostat_poison_faults_total", "BadgerTrap poison faults serviced.",
		func(s *Snapshot) *uint64 { return &s.PoisonFaults }},
	{"migration_bytes", "thermostat_migration_bytes_total", "Bytes moved between tiers.",
		func(s *Snapshot) *uint64 { return &s.MigrationBytes }},
	{"demotions", "thermostat_demotions_total", "Pages demoted toward slower tiers.",
		func(s *Snapshot) *uint64 { return &s.Demotions }},
	{"promotions", "thermostat_promotions_total", "Pages promoted back toward DRAM.",
		func(s *Snapshot) *uint64 { return &s.Promotions }},
	{"chaos_injected", "thermostat_chaos_faults_injected_total", "Chaos faults injected.",
		func(s *Snapshot) *uint64 { return &s.FaultsInjected }},
	{"chaos_permanent", "thermostat_chaos_faults_permanent_total", "Chaos faults marked permanent.",
		func(s *Snapshot) *uint64 { return &s.FaultsPermanent }},
	{"migration_retries", "thermostat_migration_retries_total", "Migration attempts retried after an injected fault.",
		func(s *Snapshot) *uint64 { return &s.MigrationRetries }},
	{"migration_rollbacks", "thermostat_migration_rollbacks_total", "Migration transactions rolled back.",
		func(s *Snapshot) *uint64 { return &s.MigrationRollbacks }},
	{"pages_quarantined", "thermostat_pages_quarantined_total", "Pages quarantined after exhausting retries.",
		func(s *Snapshot) *uint64 { return &s.PagesQuarantined }},
}

// Add adds o's counters, TierAccesses included, to s's, growing s's
// TierAccesses to o's length.
func (s *Snapshot) Add(o *Snapshot) {
	for _, c := range Counters {
		*c.Of(s) += *c.Of(o)
	}
	for len(s.TierAccesses) < len(o.TierAccesses) {
		s.TierAccesses = append(s.TierAccesses, 0)
	}
	for i, v := range o.TierAccesses {
		s.TierAccesses[i] += v
	}
}

// Sub subtracts base's counters, TierAccesses included, from s's: with s
// and base cumulative, s becomes the delta since base.
func (s *Snapshot) Sub(base *Snapshot) {
	for _, c := range Counters {
		*c.Of(s) -= *c.Of(base)
	}
	for i := range s.TierAccesses {
		s.TierAccesses[i] -= base.TierAccesses[i]
	}
}

// Recorder receives events and snapshots. Implementations must not retain
// slices inside the snapshot beyond the call unless they copy them.
// Instrumentation sites keep a nil Recorder when telemetry is off and guard
// every emission with a nil check.
type Recorder interface {
	Event(Event)
	Snapshot(Snapshot)
}

// TenantSink is an optional Recorder extension: recorders that implement it
// additionally receive the fleet runner's per-tenant arbiter-period
// snapshots. The standard Collector does not implement it (tenant series
// live in the fleet result); the live observability plane does.
type TenantSink interface {
	TenantSnapshot(TenantSnapshot)
}

// Config bounds a Collector's memory.
type Config struct {
	// MaxEvents caps buffered events (default 1<<20); past the cap events
	// are counted as dropped, deterministically.
	MaxEvents int
	// MaxSnapshots sizes the epoch-snapshot ring (default 4096); the ring
	// keeps the most recent epochs.
	MaxSnapshots int
}

// Default collector bounds.
const (
	defaultMaxEvents    = 1 << 20
	defaultMaxSnapshots = 4096
)

// Collector is the standard Recorder: it buffers events, stamps them with
// the current epoch, and keeps the most recent epoch snapshots in a ring.
// It is not safe for concurrent use; every simulation owns its own.
type Collector struct {
	cfg     Config
	events  []Event
	dropped uint64

	snaps []Snapshot // ring storage
	head  int        // index of oldest snapshot
	n     int        // live snapshots

	epoch uint64 // current epoch stamp
}

// NewCollector returns a collector with default bounds.
func NewCollector() *Collector { return NewCollectorWith(Config{}) }

// NewCollectorWith returns a collector with the given bounds (zero fields
// select defaults).
func NewCollectorWith(cfg Config) *Collector {
	if cfg.MaxEvents <= 0 {
		cfg.MaxEvents = defaultMaxEvents
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = defaultMaxSnapshots
	}
	return &Collector{cfg: cfg, snaps: make([]Snapshot, 0, cfg.MaxSnapshots)}
}

// Event implements Recorder. KindEpochStart advances the collector's epoch
// stamp; every other event is stamped with the current epoch.
func (c *Collector) Event(e Event) {
	if e.Kind == KindEpochStart {
		c.epoch = e.Epoch
	} else {
		e.Epoch = c.epoch
	}
	if len(c.events) >= c.cfg.MaxEvents {
		c.dropped++
		return
	}
	c.events = append(c.events, e)
}

// Snapshot implements Recorder: appends to the ring, evicting the oldest
// epoch when full.
func (c *Collector) Snapshot(s Snapshot) {
	// Deep-copy the per-tier slices; callers may reuse their buffers.
	s.TierAccesses = append([]uint64(nil), s.TierAccesses...)
	s.TierOccupancy = append([]uint64(nil), s.TierOccupancy...)
	if c.n < c.cfg.MaxSnapshots {
		c.snaps = append(c.snaps, s)
		c.n++
		return
	}
	c.snaps[c.head] = s
	c.head = (c.head + 1) % c.cfg.MaxSnapshots
}

// Epoch returns the current epoch stamp.
func (c *Collector) Epoch() uint64 { return c.epoch }

// Events returns the buffered events in record order. The slice is the
// collector's own; callers must not mutate it.
func (c *Collector) Events() []Event { return c.events }

// Dropped returns the number of events discarded past the MaxEvents cap.
func (c *Collector) Dropped() uint64 { return c.dropped }

// Snapshots returns the retained epoch snapshots, oldest first.
func (c *Collector) Snapshots() []Snapshot {
	if c.head == 0 {
		return c.snaps[:c.n]
	}
	out := make([]Snapshot, 0, c.n)
	out = append(out, c.snaps[c.head:]...)
	out = append(out, c.snaps[:c.head]...)
	return out
}

// EventCount returns the number of buffered events.
func (c *Collector) EventCount() int { return len(c.events) }

// Bounds returns the collector's resolved memory bounds (defaults filled
// in). The observability plane mirrors the collector's deterministic drop
// and ring accounting from these bounds instead of reading the collector
// concurrently.
func (c *Collector) Bounds() Config { return c.cfg }
