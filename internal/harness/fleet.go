package harness

import (
	"fmt"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/fleet"
	"thermostat/internal/obsv"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// FleetTenant describes one tenant of a fleet experiment: a workload, its
// Thermostat composition, its SLO, and its churn schedule.
type FleetTenant struct {
	Name string
	Spec workload.Spec
	// SLOPct is the tenant's tolerable-slowdown objective and the
	// TolerableSlowdownPct its cgroup's Thermostat runs with (default 3).
	SLOPct float64
	// Priority and Share weight arbitration and the access interleave
	// (defaults 1).
	Priority int
	Share    int
	// FloorBytes is the guaranteed minimum DRAM grant (already scaled).
	FloorBytes uint64
	// Tracker and Policy pick the engine composition (defaults "poison"
	// and "threshold" — the paper's Thermostat).
	Tracker string
	Policy  string
	// ArriveNs and DepartNs schedule churn relative to run start
	// (0 = present from the start / stays to the end).
	ArriveNs int64
	DepartNs int64
	// SeedDelta offsets this tenant's app seed from Scale.Seed so tenants
	// draw independent streams. Tenant 0 defaults to 0 — its app and
	// engine then seed exactly as a solo Run would, which is what the
	// degenerate-fleet differential test pins — and tenant i>0 defaults
	// to i spaced by a large odd constant.
	SeedDelta uint64
}

func (t FleetTenant) withDefaults(i int) FleetTenant {
	if t.Name == "" {
		t.Name = fmt.Sprintf("%s-%d", t.Spec.Name, i)
	}
	if t.SLOPct == 0 {
		t.SLOPct = 3
	}
	if t.Priority < 1 {
		t.Priority = 1
	}
	if t.Share < 1 {
		t.Share = 1
	}
	if t.Tracker == "" {
		t.Tracker = "poison"
	}
	if t.Policy == "" {
		t.Policy = "threshold"
	}
	if t.SeedDelta == 0 {
		t.SeedDelta = uint64(i) * 0x9e3779b97f4a7c15
	}
	return t
}

// scaledFootprint estimates the tenant's mapped bytes under sc: the spec's
// committed bytes divided down, plus per-segment huge-page rounding slop.
func (t FleetTenant) scaledFootprint(sc Scale) uint64 {
	fp, _ := sc.footprint(t.Spec)
	return fp + uint64(len(t.Spec.Segments)+1)*(2<<20)
}

// FleetOptions configures a FleetRun.
type FleetOptions struct {
	// Scale is the size/time transform (default Repro()).
	Scale Scale
	// Tenants is the fleet population in member order.
	Tenants []FleetTenant
	// FastBytes overrides the fast tier's capacity — the DRAM pool the
	// arbiter splits. The default sizes the machine as the sum of each
	// tenant's solo sizing, which leaves the pool unconstrained; set it
	// below the combined footprint to create real arbitration pressure.
	FastBytes uint64
	// Workers fans the per-tenant all-DRAM baselines out (the fleet run
	// itself shares one machine and is inherently serial). Results are
	// bit-identical at any setting.
	Workers int
	// Baselines enables the per-tenant solo all-DRAM baseline runs.
	Baselines bool
	// Telemetry attaches a collector to the fleet machine.
	Telemetry *TelemetryOptions
	// Publisher, when non-nil, tees the fleet machine's recorder stream
	// (and per-tenant arbiter snapshots) into the live observability plane
	// and publishes each tenant engine's classification census. Strictly
	// read-side; exports stay byte-identical.
	Publisher *obsv.Publisher
	// ConfigMutate, when non-nil, adjusts the machine config before the
	// machine is built — the hook chaos experiments install their
	// injector through. A zero-rate chaos config installs no injector, so
	// mutated-but-disabled runs stay bit-identical to unmutated ones.
	ConfigMutate func(*sim.Config)
}

// FleetOutcome bundles a fleet run with everything reports and tests need.
type FleetOutcome struct {
	Scale   Scale
	Machine *sim.Machine
	Root    *cgroup.Group
	Tenants []*core.Tenant
	Members []fleet.Member
	Result  *fleet.Result
	// Baselines maps tenant name to its solo all-DRAM run (only with
	// FleetOptions.Baselines).
	Baselines map[string]*sim.RunResult
	// Telemetry is the fleet machine's collector when enabled.
	Telemetry *telemetry.Collector
}

// FleetRun builds one machine sized for the whole population, wires each
// tenant's cgroup (a child of one pool root), app, and scoped engine, and
// runs them under fleet arbitration. The per-tenant all-DRAM baselines, when
// requested, fan out across opt.Workers; everything is deterministic and
// bit-identical at any worker count.
func FleetRun(opt FleetOptions) (*FleetOutcome, error) {
	if opt.Scale.Div == 0 {
		opt.Scale = Repro()
	}
	sc := opt.Scale
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(opt.Tenants) == 0 {
		return nil, fmt.Errorf("harness: fleet with no tenants")
	}
	tens := make([]FleetTenant, len(opt.Tenants))
	for i, t := range opt.Tenants {
		tens[i] = t.withDefaults(i)
	}

	// Machine: tenant 0's solo sizing (TLB/LLC reach depend only on the
	// scale) widened by every further tenant's memory, so a one-tenant
	// fleet gets exactly the solo Run machine.
	cfg := sc.MachineConfig(tens[0].Spec, true)
	for _, t := range tens[1:] {
		extra := sc.MachineConfig(t.Spec, true)
		cfg.FastSpec.Capacity += extra.FastSpec.Capacity
		cfg.SlowSpec.Capacity += extra.SlowSpec.Capacity
	}
	if opt.FastBytes > 0 {
		cfg.FastSpec.Capacity = opt.FastBytes
	}
	if opt.ConfigMutate != nil {
		opt.ConfigMutate(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	// Note: no EnablePageCounts here — the solo composed runs the
	// differential tests compare against attach a bare Recorder, and the
	// confusion-matrix columns must agree (absent) for byte-identity.
	var col *telemetry.Collector
	if opt.Telemetry != nil {
		col = opt.Telemetry.NewCollector()
	}
	rec, census := Observe(opt.Publisher, "fleet", col)
	if rec != nil {
		m.SetRecorder(rec)
	}

	rootParams := cgroup.Default()
	rootParams.SamplePeriodNs = sc.PeriodNs
	rootParams.SlowMemLatencyNs = 1000 * sc.TimeDilate
	root, err := cgroup.NewGroup("fleet", rootParams)
	if err != nil {
		return nil, err
	}

	out := &FleetOutcome{Scale: sc, Machine: m, Root: root}
	for _, t := range tens {
		p := cgroup.Default()
		p.TolerableSlowdownPct = t.SLOPct
		p.SamplePeriodNs = sc.PeriodNs
		p.SlowMemLatencyNs = 1000 * sc.TimeDilate
		g, err := root.NewChild(t.Name, p)
		if err != nil {
			return nil, err
		}
		app, err := sc.NewApp(t.Spec, sc.Seed+t.SeedDelta)
		if err != nil {
			return nil, err
		}
		eng, err := core.ComposeByName(g, t.Tracker, t.Policy, sc.Seed+t.SeedDelta+engineSeedOffset)
		if err != nil {
			return nil, err
		}
		census("fleet/"+t.Name, eng)
		ten := core.NewTenant(t.Name, app, g, eng)
		ten.SLOPct = t.SLOPct
		ten.Priority = t.Priority
		ten.Share = t.Share
		ten.FloorBytes = t.FloorBytes
		if err := ten.Validate(); err != nil {
			return nil, err
		}
		out.Tenants = append(out.Tenants, ten)
		out.Members = append(out.Members, fleet.Member{
			Tenant: ten, ArriveNs: t.ArriveNs, DepartNs: t.DepartNs,
			EstBytes: t.scaledFootprint(sc),
		})
	}

	res, err := fleet.Run(m, fleet.Config{
		Root: root, DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs,
		WindowNs: sc.PeriodNs, ArbiterPeriodNs: sc.PeriodNs,
	}, out.Members)
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.Telemetry = col

	if opt.Baselines {
		rows := make([]row, len(tens))
		for i, t := range tens {
			rows[i] = row{spec: t.Spec, sc: sc, arms: []arm{baseline}}
			rows[i].sc.Seed += t.SeedDelta
		}
		outs, err := runGrid(opt.Workers, rows)
		if err != nil {
			return nil, err
		}
		out.Baselines = make(map[string]*sim.RunResult, len(tens))
		for i, t := range tens {
			out.Baselines[t.Name] = outs[i][0].Result
		}
	}
	return out, nil
}

// FleetSavings prices the fleet's final machine-wide placement against an
// all-DRAM system of the same footprint (the paper's cost model applied to
// the whole pool).
func FleetSavings(o *FleetOutcome) (float64, error) {
	return placementSavings(o.Machine.Memory(), o.Result.Global.FinalFootprint)
}
