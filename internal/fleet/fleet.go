package fleet

import (
	"fmt"

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

// TenantResult summarizes one tenant's run.
type TenantResult struct {
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

// Result is a fleet run's full outcome.
type Result struct {
	// Global carries the machine-wide series and counters in sim.Run's
	// exact shape (PolicyName "fleet"); for a single-tenant fleet it is
	// bit-identical to the solo sim.Run result.
	Global *sim.RunResult
	// Tenants holds per-tenant summaries in member order.
	Tenants []TenantResult
	// Series holds per-tenant snapshots, one per resident tenant per
	// arbiter period, period-major in member order.
	Series []telemetry.TenantSnapshot
	// PoolBytes echoes the arbitrated budget; Periods counts completed
	// arbiter rounds.
	PoolBytes uint64
	Periods   uint64
}

// tenantState is the runner's per-member bookkeeping.
type tenantState struct {
	mem Member
	t   *core.Tenant

	arrived  bool
	active   bool
	rejected bool

	// planned counts the tenant's picks while a block's interleave is
	// planned, and reqs holds its requests of the block not yet issued.
	planned int
	reqs    []sim.Req

	ops       uint64
	warmupOps uint64
	grant     uint64
	interval  int64
	computeNs int64
	nextTick  int64
	wrr       int

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
	cfg    Config
	pool   uint64
	states []tenantState

	start       int64
	end         int64
	warmupClock int64
	arb         int64
	nextArb     int64
	totalShare  int
	periods     uint64
	series      []telemetry.TenantSnapshot

	totalOps, warmupOps uint64
	et                  *sim.EpochTracker
	tally               *sim.Tally

	// maxAdv bounds one op's clock advance for any member (BlockOps' U);
	// order is the block's planned interleave, as indexes into states, and
	// reqs the block's requests, carved into one run per tenant.
	maxAdv int64
	order  []int32
	reqs   []sim.Req
}

// Run executes the members' workloads concurrently on one machine under
// fleet arbitration. The serial ordering is sim.Run's — access, clock
// advance, window drain, then boundary drain — with the tenant interleave
// chosen by smooth weighted round-robin over Share and the arbiter riding
// the boundary drain at its own period. Like sim.Run it issues ops in
// blocks that end on a boundary: a block is sized (sim.Machine.BlockOps) so
// that only its last op can reach the horizon, the earliest time a window,
// arbiter round, tick, arrival, departure or the end falls due, and the
// drains run once after it — exactly when a loop that tested them after
// every op would first find work. Within a block the interleave is planned
// ahead and each tenant's requests are drawn with one NextBatch, which is
// exact because a tenant's request stream depends only on its own app's
// state and that changes only in App.Init and App.Tick, both boundary work.
// While nobody is resident the clock jumps to the horizon. One tenant with
// the full pool and no churn reduces to sim.Run verbatim.
func Run(m *sim.Machine, cfg Config, members []Member) (*Result, error) {
	r, err := newRunner(m, cfg, members)
	if err != nil {
		return nil, err
	}
	for m.Clock() < r.end {
		if err := r.block(); err != nil {
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
	r := &runner{m: m, cfg: cfg, pool: pool, states: make([]tenantState, len(members))}
	var maxInterval, maxCompute int64
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
		st := tenantState{
			mem: mb, t: mb.Tenant,
			interval:  iv,
			computeNs: mb.Tenant.App.ComputeNs(),
		}
		maxCompute = max(maxCompute, st.computeNs)
		r.states[i] = st
	}
	r.maxAdv = m.MaxOpAdvanceNs(maxCompute)
	r.order = make([]int32, sim.MaxBlockOps)
	r.reqs = make([]sim.Req, sim.MaxBlockOps)
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
	r.end = r.start + cfg.DurationNs
	r.warmupClock = r.start + cfg.WarmupNs
	r.nextArb = r.start + r.arb
	r.tally = sim.NewTally(m, r.fleetName(), "fleet", window, func(m *sim.Machine) sim.Footprint {
		return sim.ScanFootprint(m, nil)
	})

	// Admit the initial population in member order, then assign initial
	// grants silently (no telemetry: tenants present at start are part of
	// the run's shape, not churn events).
	for i := range r.states {
		st := &r.states[i]
		if st.mem.ArriveNs <= 0 {
			if err := r.attach(st, r.start); err != nil {
				return nil, err
			}
		}
	}
	if r.totalShare == 0 && !r.anyPendingArrival() {
		return nil, fmt.Errorf("fleet: no tenant ever present")
	}
	if _, _, err := r.grantRound(r.start); err != nil {
		return nil, err
	}

	// A single-tenant no-churn fleet is the degenerate case the
	// differential tests pin against sim.Run: bind the epoch tracker to
	// that tenant's engine so per-epoch confusion and fault columns match
	// the solo run. With real multi-tenancy no single policy owns the
	// machine and the tracker runs unbound.
	if len(r.states) == 1 && r.states[0].mem.ArriveNs <= 0 && r.states[0].mem.DepartNs == 0 {
		r.et = sim.NewEpochTracker(m, r.states[0].t.Engine)
	} else {
		r.et = sim.NewEpochTracker(m, nil)
	}
	return r, nil
}

// horizon returns the earliest time at which drain has work — the next
// window or arbiter round, the end, a resident tenant's tick or departure, a
// pending arrival — and whether anybody is resident. (The warm-up mark is
// not in it: block keeps the warm-up counters op by op, so no block has to
// end there.)
func (r *runner) horizon() (h int64, resident bool) {
	h = min(r.tally.NextWindow(), r.nextArb, r.end)
	for i := range r.states {
		st := &r.states[i]
		switch {
		case st.active:
			resident = true
			h = min(h, st.nextTick)
			if st.mem.DepartNs > 0 {
				h = min(h, r.start+st.mem.DepartNs)
			}
		case !st.arrived && !st.rejected && st.mem.ArriveNs > 0:
			h = min(h, r.start+st.mem.ArriveNs)
		}
	}
	return h, resident
}

// block issues the ops up to the horizon, or idles to it when nobody is
// resident: plan the interleave, draw each tenant's requests, issue them in
// the planned order.
func (r *runner) block() error {
	m := r.m
	now := m.Clock()
	h, resident := r.horizon()
	if !resident {
		m.AdvanceClockTo(h)
		return nil
	}
	n := m.BlockOps(h, r.maxAdv)
	for k := 0; k < n; k++ {
		pick := r.pickTenant()
		st := &r.states[pick]
		st.wrr -= r.totalShare
		st.planned++
		r.order[k] = int32(pick)
	}
	off := 0
	for i := range r.states {
		st := &r.states[i]
		if st.planned == 0 {
			continue
		}
		st.reqs = r.reqs[off : off+st.planned]
		off += st.planned
		st.planned = 0
		if err := sim.Draw(st.t.App, st.reqs); err != nil {
			return fmt.Errorf("fleet: %s: %w", st.t.Name, err)
		}
	}
	inWarmup := r.cfg.WarmupNs > 0 && now <= r.warmupClock
	for _, pick := range r.order[:n] {
		st := &r.states[pick]
		q := st.reqs[0]
		st.reqs = st.reqs[1:]
		if _, err := m.Access(q.V, q.Write); err != nil {
			return fmt.Errorf("fleet: %s op %d: %w", st.t.Name, st.ops, err)
		}
		if st.computeNs > 0 {
			m.AdvanceClock(st.computeNs)
		}
		st.ops++
		r.totalOps++
		if inWarmup && m.Clock() <= r.warmupClock {
			r.warmupOps = r.totalOps
			st.warmupOps = st.ops
		}
	}
	return nil
}

// drain runs everything due at now, in sim.Run's order: metric windows,
// then churn, then tenant ticks and arbiter rounds.
func (r *runner) drain(now int64) error {
	// Window drain first, exactly as sim.Run: the metric series see
	// machine state before any boundary work at the same instant.
	r.tally.Windows(now)
	// Churn: due arrivals then due departures, member order.
	for i := range r.states {
		st := &r.states[i]
		if !st.arrived && !st.rejected && st.mem.ArriveNs > 0 && now >= r.start+st.mem.ArriveNs {
			if err := r.admit(st, now); err != nil {
				return err
			}
		}
	}
	for i := range r.states {
		st := &r.states[i]
		if st.active && st.mem.DepartNs > 0 && now >= r.start+st.mem.DepartNs {
			if err := r.depart(st, now); err != nil {
				return err
			}
		}
	}
	// Boundary drain: tenant ticks and arbiter rounds in time order,
	// ties to the tenant (matching sim.Run, where the policy tick runs
	// before the epoch roll at the same boundary).
	for {
		bi, bt := -1, int64(0)
		for i := range r.states {
			st := &r.states[i]
			if st.active && now >= st.nextTick && (bi == -1 || st.nextTick < bt) {
				bi, bt = i, st.nextTick
			}
		}
		if now >= r.nextArb && (bi == -1 || r.nextArb < bt) {
			if err := r.arbitrate(now); err != nil {
				return err
			}
			r.periods++
			r.et.Roll(now)
			r.nextArb += r.arb
			continue
		}
		if bi == -1 {
			return nil
		}
		st := &r.states[bi]
		if err := st.t.App.Tick(r.m, now); err != nil {
			return fmt.Errorf("fleet: %s tick: %w", st.t.Name, err)
		}
		if err := st.t.Engine.Tick(r.m, now); err != nil {
			return fmt.Errorf("fleet: %s tick: %w", st.t.Name, err)
		}
		st.nextTick += st.interval
	}
}

// result closes the run's telemetry and assembles the global and
// per-tenant summaries.
func (r *runner) result() *Result {
	m := r.m
	r.et.End(m.Clock())
	res := r.tally.Close(r.totalOps, r.warmupOps, r.cfg.WarmupNs)
	out := &Result{Global: res, PoolBytes: r.pool, Periods: r.periods, Series: r.series}
	for i := range r.states {
		st := &r.states[i]
		if st.active {
			st.finalStats = st.t.Engine.Stats()
			st.finalFast = st.t.FastBytes(m)
			st.finalFootprint = st.t.FootprintBytes(m)
		}
		tr := TenantResult{
			Name: st.t.Name, Priority: st.t.Priority, Share: st.t.Share,
			SLOPct: st.t.SLOPct, Ops: st.ops, Stats: st.finalStats,
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
			tr.Throughput = sim.Throughput(st.ops, st.warmupOps, st.arrivedAt, r.warmupClock, to)
		}
		out.Tenants = append(out.Tenants, tr)
	}
	return out
}

// fleetName joins the member names for the global result.
func (r *runner) fleetName() string {
	name := ""
	for i := range r.states {
		if i > 0 {
			name += "+"
		}
		name += r.states[i].t.Name
	}
	return name
}

// pickTenant runs one step of smooth weighted round-robin over the resident
// tenants: bump every credit by its share, run the highest (first wins
// ties), debit it by the total. Deterministic, and with one tenant it
// degenerates to "always tenant 0".
func (r *runner) pickTenant() int {
	pick := -1
	for i := range r.states {
		st := &r.states[i]
		if !st.active {
			continue
		}
		st.wrr += st.t.Share
		if pick < 0 || st.wrr > r.states[pick].wrr {
			pick = i
		}
	}
	return pick
}

func (r *runner) anyPendingArrival() bool {
	for i := range r.states {
		if !r.states[i].arrived && r.states[i].mem.ArriveNs > 0 {
			return true
		}
	}
	return false
}

// attach initializes a tenant's workload and engine on the machine.
func (r *runner) attach(st *tenantState, now int64) error {
	if err := st.t.App.Init(r.m); err != nil {
		return fmt.Errorf("fleet: init %s: %w", st.t.Name, err)
	}
	if err := st.t.Engine.Attach(r.m); err != nil {
		return fmt.Errorf("fleet: attach %s: %w", st.t.Name, err)
	}
	st.arrived, st.active = true, true
	st.arrivedAt = now
	st.nextTick = now + st.interval
	r.totalShare += st.t.Share
	return nil
}

// admit handles one mid-run arrival: check floors, squeeze incumbents down
// to the post-arrival grants, verify the fast tier can hold the newcomer,
// then attach it. A rejected tenant never joins arbitration again.
func (r *runner) admit(st *tenantState, now int64) error {
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
	if err := r.attach(st, now); err != nil {
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
func (r *runner) depart(st *tenantState, now int64) error {
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
	r.totalShare -= st.t.Share
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
			SlowdownPct:    sd, SLOPct: st.t.SLOPct, Ops: st.ops,
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
