package fleet

import (
	"fmt"
	"strings"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
)

// Member is one tenant's fleet-run entry: the tenant plus its churn
// schedule. Times are relative to run start in virtual nanoseconds.
type Member struct {
	Tenant *core.Tenant
	// ArriveNs is when the tenant arrives (0 = present from the start).
	ArriveNs int64
	// DepartNs is when the tenant departs (0 = stays to the end).
	DepartNs int64
	// EstBytes is the expected initial footprint, used for admission
	// control on mid-run arrivals: the fleet squeezes incumbents to make
	// room and rejects the arrival if the fast tier still cannot hold it.
	// 0 skips the check (the arrival then fails the run on a real OOM).
	EstBytes uint64
}

// Config controls a fleet run. The DRAM pool arbitrated among tenants is
// the fast tier's capacity.
type Config struct {
	// Root, when non-nil, is the cgroup parent of every tenant group; its
	// limit is set to the pool so hierarchical accounting caps the fleet.
	Root *cgroup.Group
	// DurationNs is the virtual run length; WindowNs the metric window
	// (default: the arbiter period); WarmupNs the span excluded from
	// summary statistics — all as sim.RunConfig.
	DurationNs int64
	WindowNs   int64
	WarmupNs   int64
	// ArbiterPeriodNs is the grant-revision period (default: the largest
	// tenant engine interval).
	ArbiterPeriodNs int64
}

// tenantResult summarizes one tenant's run.
type tenantResult struct {
	Name     string
	Priority int
	Share    int
	SLOPct   float64

	// Ops is the tenant's access count; Throughput its post-warmup
	// ops/sec over its resident span.
	Ops        uint64
	Throughput float64
	// Stats is the tenant engine's counters at departure or run end.
	Stats core.Stats
	// MeanSlowdownPct averages the engine's own slowdown estimate over the
	// tenant's post-warmup arbiter periods — the number to hold against
	// SLOPct.
	MeanSlowdownPct float64
	// GrantBytes is the final DRAM grant; FastBytes and FootprintBytes the
	// final residency (zero after departure).
	GrantBytes     uint64
	FastBytes      uint64
	FootprintBytes uint64

	// ArrivedNs and DepartedNs are absolute virtual times; DepartedNs is 0
	// while resident. Rejected marks an arrival the pool could not admit.
	ArrivedNs  int64
	DepartedNs int64
	Rejected   bool
}

// SLOStatus is the tenant's verdict against its SLO: "rejected" if the
// pool never admitted it, "MISSES" if its mean slowdown estimate exceeds
// SLOPct, else "meets".
func (t tenantResult) SLOStatus() string {
	switch {
	case t.Rejected:
		return "rejected"
	case t.MeanSlowdownPct > t.SLOPct:
		return "MISSES"
	}
	return "meets"
}

// Result is a fleet run's full outcome.
type Result struct {
	// Global carries the machine-wide series and counters in sim.Run's
	// exact shape (PolicyName "fleet"); for a single-tenant fleet it is
	// bit-identical to the solo sim.Run result.
	Global *sim.RunResult
	// Tenants holds per-tenant summaries in member order.
	Tenants []tenantResult
	// Series holds per-tenant snapshots, one per resident tenant per
	// arbiter period, period-major in member order.
	Series []telemetry.TenantSnapshot
	// PoolBytes echoes the arbitrated budget; Periods counts completed
	// arbiter rounds.
	PoolBytes uint64
	Periods   uint64
}

// tenantState is the runner's per-member bookkeeping beside the
// Scheduler's member of the same index.
type tenantState struct {
	mem Member
	t   *core.Tenant

	arrived  bool
	active   bool
	rejected bool

	grant uint64

	arrivedAt   int64
	departedAt  int64
	slowdownSum float64
	slowdownN   int

	finalStats     core.Stats
	finalFast      uint64
	finalFootprint uint64
}

type runner struct {
	m      *sim.Machine
	s      *sim.Scheduler
	pool   uint64
	states []tenantState

	start       int64
	warmupClock int64
	arb         int64
	nextArb     int64
	periods     uint64
	series      []telemetry.TenantSnapshot
}

// Run executes the members' workloads concurrently on one machine under
// fleet arbitration. The run loop is sim.Scheduler's, one member per
// tenant, interleaved by smooth weighted round-robin over Share; the fleet
// adds its own boundaries to each block's horizon — arbiter rounds,
// arrivals, departures — and its own work to the drain after it. One
// tenant with the full pool and no churn reduces to sim.Run verbatim.
func Run(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
	r, err := newRunner(m, cfg, members)
	if err != nil {
		return nil, err
	}
	defer r.s.Stop()
	for !r.s.Done() {
		if err := r.s.Block(r.horizon()); err != nil {
			return nil, err
		}
		if err := r.drain(m.Clock()); err != nil {
			return nil, err
		}
	}
	return r.result(), nil
}

// newRunner validates the members, admits the initial population and
// assigns its grants: everything up to the first access.
func newRunner(m *sim.Machine, cfg Config, members []Member) (*runner, error) {
	if cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("fleet: non-positive duration %d", cfg.DurationNs)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	pool := m.Memory().Tier(0).Capacity()
	r := &runner{m: m, pool: pool, states: make([]tenantState, len(members))}
	var maxInterval int64
	names := make([]string, len(members))
	for i, mb := range members {
		if mb.Tenant == nil {
			return nil, fmt.Errorf("fleet: member %d has no tenant", i)
		}
		if err := mb.Tenant.Validate(); err != nil {
			return nil, err
		}
		iv := mb.Tenant.Engine.IntervalNs()
		if iv <= 0 {
			return nil, fmt.Errorf("fleet: tenant %q interval %d <= 0", mb.Tenant.Name, iv)
		}
		maxInterval = max(maxInterval, iv)
		r.states[i] = tenantState{mem: mb, t: mb.Tenant}
		names[i] = mb.Tenant.Name
	}
	r.arb = cfg.ArbiterPeriodNs
	if r.arb <= 0 {
		r.arb = maxInterval
	}
	window := cfg.WindowNs
	if window <= 0 {
		window = r.arb
	}
	if cfg.Root != nil {
		cfg.Root.SetLimit(pool)
	}

	r.start = m.Clock()
	r.warmupClock = r.start + cfg.WarmupNs
	r.nextArb = r.start + r.arb
	r.s = sim.NewScheduler(m, sim.RunConfig{DurationNs: cfg.DurationNs, WindowNs: window, WarmupNs: cfg.WarmupNs},
		strings.Join(names, "+"), "fleet", func(m *sim.Machine) sim.Footprint { return sim.ScanFootprint(m, nil) })
	for i := range r.states {
		t := r.states[i].t
		r.s.Add(t.Name, t.App, t.Engine, t.Share)
	}

	// Admit the initial population in member order, then assign initial
	// grants silently (no telemetry: tenants present at start are part of
	// the run's shape, not churn events).
	for i := range r.states {
		if r.states[i].mem.ArriveNs <= 0 {
			if err := r.attach(i, r.start); err != nil {
				return nil, err
			}
		}
	}
	if _, _, err := r.grantRound(r.start); err != nil {
		return nil, err
	}

	// A single-tenant no-churn fleet is the degenerate case the
	// differential tests pin against sim.Run: its epochs take that
	// tenant's engine's cold set and fault report, so per-epoch confusion
	// and fault columns match the solo run. With real multi-tenancy no
	// single policy owns the machine.
	var owner sim.Policy
	if len(r.states) == 1 && r.states[0].mem.ArriveNs <= 0 && r.states[0].mem.DepartNs == 0 {
		owner = r.states[0].t.Engine
	}
	r.s.Begin(owner)
	return r, nil
}

// horizon returns the earliest time at which the fleet's own boundary work
// falls due: the next arbiter round, a resident tenant's departure or a
// pending arrival. The Scheduler bounds each block by it as well as by its
// own boundaries (windows, ticks, the warm-up mark, the end).
func (r *runner) horizon() int64 {
	h := r.nextArb
	for i := range r.states {
		st := &r.states[i]
		switch {
		case st.active && st.mem.DepartNs > 0:
			h = min(h, r.start+st.mem.DepartNs)
		case !st.arrived && !st.rejected && st.mem.ArriveNs > 0:
			h = min(h, r.start+st.mem.ArriveNs)
		}
	}
	return h
}

// drain runs the boundary work due at now, after the Scheduler's window
// drain: churn, then tenant ticks and arbiter rounds in time order.
func (r *runner) drain(now int64) error {
	// Churn: due arrivals then due departures, member order.
	for i := range r.states {
		st := &r.states[i]
		if !st.arrived && !st.rejected && st.mem.ArriveNs > 0 && now >= r.start+st.mem.ArriveNs {
			if err := r.admit(i, now); err != nil {
				return err
			}
		}
	}
	for i := range r.states {
		st := &r.states[i]
		if st.active && st.mem.DepartNs > 0 && now >= r.start+st.mem.DepartNs {
			if err := r.depart(i, now); err != nil {
				return err
			}
		}
	}
	// Tenant ticks and arbiter rounds in time order, ties to the tenant
	// (as under sim.Run, where the policy tick runs before the epoch roll
	// at the same boundary).
	for {
		if i := r.s.DueTick(min(now, r.nextArb)); i >= 0 {
			if err := r.s.Tick(i, now); err != nil {
				return err
			}
			continue
		}
		if now < r.nextArb {
			return nil
		}
		if err := r.arbitrate(now); err != nil {
			return err
		}
		r.periods++
		r.s.RollEpoch(now)
		r.nextArb += r.arb
	}
}

// result closes the run's telemetry and assembles the global and
// per-tenant summaries.
func (r *runner) result() *Result {
	m := r.m
	res := r.s.Close()
	out := &Result{Global: res, PoolBytes: r.pool, Periods: r.periods, Series: r.series}
	for i := range r.states {
		st := &r.states[i]
		if st.active {
			st.finalStats = st.t.Engine.Stats()
			st.finalFast = st.t.FastBytes(m)
			st.finalFootprint = st.t.FootprintBytes(m)
		}
		tr := tenantResult{
			Name: st.t.Name, Priority: st.t.Priority, Share: st.t.Share,
			SLOPct: st.t.SLOPct, Ops: r.s.Ops(i), Stats: st.finalStats,
			GrantBytes: st.grant, FastBytes: st.finalFast,
			FootprintBytes: st.finalFootprint,
			ArrivedNs:      st.arrivedAt, DepartedNs: st.departedAt,
			Rejected: st.rejected,
		}
		if st.slowdownN > 0 {
			tr.MeanSlowdownPct = st.slowdownSum / float64(st.slowdownN)
		}
		if st.arrived {
			to := st.departedAt
			if to == 0 {
				to = m.Clock()
			}
			tr.Throughput = r.s.Throughput(i, st.arrivedAt, to)
		}
		out.Tenants = append(out.Tenants, tr)
	}
	return out
}

// attach initializes tenant i's workload and engine on the machine and
// makes it resident.
func (r *runner) attach(i int, now int64) error {
	st := &r.states[i]
	if err := st.t.App.Init(r.m); err != nil {
		return fmt.Errorf("fleet: init %s: %w", st.t.Name, err)
	}
	if err := st.t.Engine.Attach(r.m); err != nil {
		return fmt.Errorf("fleet: attach %s: %w", st.t.Name, err)
	}
	st.arrived, st.active = true, true
	st.arrivedAt = now
	r.s.Join(i)
	return nil
}

// admit handles one mid-run arrival: check floors, squeeze incumbents down
// to the post-arrival grants, verify the fast tier can hold the newcomer,
// then attach it. A rejected tenant never joins arbitration again.
func (r *runner) admit(i int, now int64) error {
	st := &r.states[i]
	ds, idx := r.residents()
	floors := st.t.FloorBytes
	for _, d := range ds {
		floors += d.FloorBytes
	}
	if floors > r.pool {
		st.rejected = true
		return nil
	}
	// Provisional arbitration with the newcomer's estimate as its demand:
	// incumbents shrink to their post-arrival grants and squeeze out the
	// difference before the newcomer allocates.
	ds = append(ds, Demand{Name: st.t.Name, Priority: st.t.Priority,
		FloorBytes: st.t.FloorBytes, DemandBytes: st.mem.EstBytes, SLOPct: st.t.SLOPct})
	grants, err := Arbitrate(r.pool, ds)
	if err != nil {
		st.rejected = true
		return nil
	}
	if err := r.applyGrants(idx, grants, now); err != nil {
		return err
	}
	if st.mem.EstBytes > 0 && r.m.Memory().Tier(0).Free() < st.mem.EstBytes {
		st.rejected = true
		return nil
	}
	if err := r.attach(i, now); err != nil {
		return err
	}
	if err := r.applyGrant(st, grants[len(grants)-1], now); err != nil {
		return err
	}
	r.syncUsage(st)
	if rec := r.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{Kind: telemetry.KindTenantArrived,
			TimeNs: now, Tenant: st.t.Name, Bytes: st.grant})
	}
	return nil
}

// depart tears one tenant down: release its memory wholesale, settle its
// accounting, and freeze its summary counters. The pages, TLB entries and
// trap state all vanish with FreeRegion, so nothing of the tenant outlives
// it on the machine — the fuzz battery holds the run to that.
func (r *runner) depart(i int, now int64) error {
	st := &r.states[i]
	st.finalStats = st.t.Engine.Stats()
	var freed uint64
	for _, reg := range st.t.Regions() {
		perTier, err := r.m.FreeRegion(reg)
		if err != nil {
			return fmt.Errorf("fleet: depart %s: %w", st.t.Name, err)
		}
		for _, b := range perTier {
			freed += b
		}
	}
	st.t.Group.Uncharge(st.t.Group.Usage())
	st.t.Group.SetLimit(0)
	st.active = false
	st.departedAt = now
	r.s.Leave(i)
	if rec := r.m.Recorder(); rec != nil {
		rec.Event(telemetry.Event{Kind: telemetry.KindTenantDeparted,
			TimeNs: now, Tenant: st.t.Name, Bytes: freed})
	}
	return nil
}

func (r *runner) demandOf(st *tenantState) Demand {
	return Demand{
		Name:        st.t.Name,
		Priority:    st.t.Priority,
		FloorBytes:  st.t.FloorBytes,
		DemandBytes: st.t.FootprintBytes(r.m),
		SlowdownPct: st.t.Engine.EstimatedSlowdownPct(),
		SLOPct:      st.t.SLOPct,
	}
}

// applyGrant moves one tenant to a new grant: update its cgroup limit,
// emit the revision event, and squeeze its residency down when the new
// grant leaves it over limit. Unchanged grants are a strict no-op — that
// silence is what keeps the degenerate single-tenant fleet byte-identical
// to the solo run.
func (r *runner) applyGrant(st *tenantState, grant uint64, now int64) error {
	if grant != st.grant || st.t.Group.Limit() != grant {
		changed := st.grant != 0 && grant != st.grant
		st.grant = grant
		st.t.Group.SetLimit(grant)
		if changed {
			if rec := r.m.Recorder(); rec != nil {
				rec.Event(telemetry.Event{Kind: telemetry.KindGrantChanged,
					TimeNs: now, Tenant: st.t.Name, Bytes: grant})
			}
		}
	}
	r.syncUsage(st)
	if over := st.t.Group.OverLimit(); over > 0 {
		freed, err := st.t.Engine.Squeeze(over)
		if err != nil {
			return fmt.Errorf("fleet: squeeze %s: %w", st.t.Name, err)
		}
		if freed > 0 {
			r.syncUsage(st)
		}
	}
	return nil
}

// syncUsage mirrors the tenant's measured top-tier residency into its
// cgroup's usage (the simulator's stand-in for per-page charge/uncharge on
// the allocation and migration paths).
func (r *runner) syncUsage(st *tenantState) {
	measured := st.t.FastBytes(r.m)
	cur := st.t.Group.Usage()
	if measured > cur {
		st.t.Group.Charge(measured - cur)
	} else if cur > measured {
		st.t.Group.Uncharge(cur - measured)
	}
}

// grantRound runs one grant computation over the resident tenants and
// applies the results — the arbitration core, shared by the initial silent
// assignment and the periodic rounds. Returns the demands and member
// indexes it acted on.
func (r *runner) grantRound(now int64) ([]Demand, []int, error) {
	ds, idx := r.residents()
	if len(ds) == 0 {
		return nil, nil, nil
	}
	grants, err := Arbitrate(r.pool, ds)
	if err != nil {
		return nil, nil, err
	}
	if err := r.applyGrants(idx, grants, now); err != nil {
		return nil, nil, err
	}
	return ds, idx, nil
}

// residents returns the demand of every resident tenant and its index in
// r.states, in state order: the members of an arbitration round.
func (r *runner) residents() ([]Demand, []int) {
	ds := make([]Demand, 0, len(r.states)+1)
	idx := make([]int, 0, len(r.states))
	for i := range r.states {
		if st := &r.states[i]; st.active {
			ds = append(ds, r.demandOf(st))
			idx = append(idx, i)
		}
	}
	return ds, idx
}

// applyGrants applies grants[k] to the resident tenant r.states[idx[k]].
func (r *runner) applyGrants(idx []int, grants []uint64, now int64) error {
	for k, i := range idx {
		if err := r.applyGrant(&r.states[i], grants[k], now); err != nil {
			return err
		}
	}
	return nil
}

// arbitrate runs one grant-revision round over the resident tenants and
// records their period snapshots. With a lone tenant the grant equals the
// pool every round, so the whole pass reduces to bookkeeping with no
// machine or telemetry side effects.
func (r *runner) arbitrate(now int64) error {
	ds, idx, err := r.grantRound(now)
	if err != nil || len(ds) == 0 {
		return err
	}
	sink, _ := r.m.Recorder().(telemetry.TenantSink)
	for k, i := range idx {
		st := &r.states[i]
		sd := ds[k].SlowdownPct
		if now > r.warmupClock {
			st.slowdownSum += sd
			st.slowdownN++
		}
		snap := telemetry.TenantSnapshot{
			Epoch: r.periods + 1, EndNs: now, Tenant: st.t.Name,
			GrantBytes: st.grant, UsageBytes: st.t.Group.Usage(),
			FootprintBytes: ds[k].DemandBytes,
			SlowdownPct:    sd, SLOPct: st.t.SLOPct, Ops: r.s.Ops(i),
			ColdPages:        st.t.Engine.ColdPages(),
			QuarantinedPages: st.t.Engine.QuarantinedPages(),
		}
		r.series = append(r.series, snap)
		// The live observability plane (an optional TenantSink recorder)
		// gets the same snapshot; the standard Collector is not a sink,
		// so plain runs are untouched.
		if sink != nil {
			sink.TenantSnapshot(snap)
		}
	}
	return nil
}
