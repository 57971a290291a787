// Package harness assembles scaled, reproducible experiments: it builds
// machines whose TLB/LLC reach scales with the footprint divisor, applies
// the time-dilation transform that keeps classification fractions and
// slowdowns invariant while shrinking simulated access counts, and provides
// the runners each table and figure regeneration uses.
//
// Scaling model (see DESIGN.md): with footprint divisor D and time dilation
// F, footprints, TLB entries and LLC capacity divide by D (preserving the
// footprint:reach ratio that drives TLB-miss behaviour), while slow-memory
// latency multiplies by F and per-op compute multiplies by F (preserving
// slowdown percentages and the cold-set budget fractions: the target rate
// x/(100·ts) divides by F exactly as the workload's absolute access rates
// do). Reported rates convert back to paper units by multiplying by F.
package harness

import (
	"fmt"

	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// Scale fixes the size/time transform and run schedule for an experiment.
type Scale struct {
	// Name labels the profile in reports.
	Name string
	// Div divides footprints, TLB entries, and LLC capacity.
	Div uint64
	// TimeDilate is F: multiplies slow-memory latency and per-op compute.
	TimeDilate int64
	// PeriodNs is the (compressed) scan interval.
	PeriodNs int64
	// DurationNs and WarmupNs schedule each run.
	DurationNs int64
	WarmupNs   int64
	// Seed drives all randomness.
	Seed uint64
}

// Validate rejects degenerate profiles.
func (s Scale) Validate() error {
	if s.Div == 0 || s.TimeDilate <= 0 || s.PeriodNs <= 0 || s.DurationNs <= 0 {
		return fmt.Errorf("harness: invalid scale %+v", s)
	}
	if s.WarmupNs < 0 || s.WarmupNs >= s.DurationNs {
		return fmt.Errorf("harness: warmup %d outside run %d", s.WarmupNs, s.DurationNs)
	}
	return nil
}

// Repro is the full-fidelity profile cmd/repro uses: 1/16 footprints, 4x
// time dilation, 2s scan intervals over a 100s run (the equivalent of a 30s
// interval over a 1500s run at paper scale).
func Repro() Scale {
	return Scale{
		Name: "repro", Div: 16, TimeDilate: 4,
		PeriodNs: 2e9, DurationNs: 100e9, WarmupNs: 20e9, Seed: 1,
	}
}

// Bench is the profile bench_test.go uses: smaller, faster, same shapes.
func Bench() Scale {
	return Scale{
		Name: "bench", Div: 64, TimeDilate: 8,
		PeriodNs: 1e9, DurationNs: 30e9, WarmupNs: 6e9, Seed: 1,
	}
}

// Tiny is the unit-test profile.
func Tiny() Scale {
	return Scale{
		Name: "tiny", Div: 256, TimeDilate: 8,
		PeriodNs: 400e6, DurationNs: 8e9, WarmupNs: 2e9, Seed: 1,
	}
}

// PaperRate converts a measured rate (per second of dilated time) back to
// paper units.
func (s Scale) PaperRate(measured float64) float64 {
	return measured * float64(s.TimeDilate)
}

// PeriodCompression is the ratio between the paper's 30s scan interval and
// this profile's, used to convert migration bandwidths to paper units.
func (s Scale) PeriodCompression() float64 {
	return 30e9 / float64(s.PeriodNs)
}

// footprint returns spec's committed bytes (segments plus full growth) under
// this scale, and the headroom that covers rounding each segment up to a
// huge page.
func (s Scale) footprint(spec workload.Spec) (bytes, headroom uint64) {
	for _, seg := range spec.Segments {
		bytes += seg.Bytes
	}
	if g := spec.Growth; g != nil {
		bytes += g.ChunkBytes * uint64(g.MaxChunks)
	}
	return bytes / s.Div, uint64(len(spec.Segments)+8) * (2 << 20)
}

// MachineConfig builds a machine sized for the spec's footprint under this
// scale. hugeHost=false selects 4KB host mappings (the THP-off configuration).
func (s Scale) MachineConfig(spec workload.Spec, hugeHost bool) sim.Config {
	footprint, headroom := s.footprint(spec)
	fast := footprint + footprint/4 + headroom
	slow := footprint + headroom

	cfg := sim.DefaultConfig(fast, slow)
	cfg.TLB.L1Entries = max(2, int(64/s.Div))
	cfg.TLB.L2Entries = max(8, int(1024/s.Div))
	cfg.LLC.SizeBytes = max(1<<20, (45<<20)/s.Div)
	cfg.FaultLatencyNs = 1000 * s.TimeDilate
	cfg.SlowSpec.ReadLatency = 1000 * s.TimeDilate
	cfg.SlowSpec.WriteLatency = 1000 * s.TimeDilate
	cfg.VM.HostHugePages = hugeHost
	return cfg
}

// NewApp instantiates spec under this scale: footprint divided, compute
// dilated, growth periods compressed like the scan interval.
func (s Scale) NewApp(spec workload.Spec, seed uint64) (*workload.App, error) {
	spec.ComputeNs *= s.TimeDilate
	if spec.Growth != nil {
		g := *spec.Growth
		g.PeriodNs = int64(float64(g.PeriodNs) / s.PeriodCompression())
		spec.Growth = &g
	}
	// Rescale sweep dwells so background-revisit periods survive the
	// footprint divisor, and dilate picker rotation periods with the
	// workload's rates.
	spec = spec.WithDwell(int(s.Div))
	spec = spec.WithTimeDilation(s.TimeDilate)
	return workload.NewApp(spec, s.Div, seed)
}

// Group builds the Thermostat cgroup for this scale and slowdown target.
func (s Scale) Group(slowdownPct float64) (*cgroup.Group, error) {
	p := cgroup.Default()
	p.TolerableSlowdownPct = slowdownPct
	p.SamplePeriodNs = s.PeriodNs
	p.SlowMemLatencyNs = 1000 * s.TimeDilate
	return cgroup.NewGroup("thermostat", p)
}

// engineSeedOffset separates an engine's sampling stream from the access
// stream its app draws from the same Scale.Seed.
const engineSeedOffset = 0x7e

// Plan says what runs on the machine a Scale sizes for a workload. The zero
// Plan is the all-DRAM baseline on the paper's two-tier machine; every other
// experiment arm is a field or two away from it.
type Plan struct {
	// Policy, when set, is a ready-made non-engine policy (idle-demote, a
	// scanner, a static placement). When nil, SlowdownPct decides: non-zero
	// builds a core.Engine at that target, zero runs sim.NullPolicy.
	Policy sim.Policy
	// SlowdownPct is the engine's tolerable-slowdown target in percent.
	SlowdownPct float64
	// Placement and Tracker pick the engine: "" or "thermostat" is the
	// paper's engine (core.NewEngine); any other Placement is a policy from
	// the core registry composed with Tracker (default "poison").
	Placement, Tracker string
	// Tiers, when non-empty, replaces the two-tier machine with this
	// hierarchy in Device mode (see TieredMachineConfig).
	Tiers []mem.Spec
	// SmallPages maps 4KB pages at guest and host — Table 1's THP-off arm.
	SmallPages bool
	// Config, Engine and Machine, when non-nil, adjust the machine config
	// before the machine is built, the engine after it is composed, and the
	// machine after it is built (recorders, chaos, ablation knobs,
	// ground-truth page counting, the observability census).
	Config  func(*sim.Config)
	Engine  func(*cgroup.Group, *core.Engine)
	Machine func(*sim.Machine)
}

// Assembly is a run built but not yet started.
type Assembly struct {
	Spec    workload.Spec
	Scale   Scale
	Machine *sim.Machine
	App     *workload.App
	// Engine is nil unless the plan selected one.
	Engine *core.Engine
	// Policy is what the run drives: Engine when there is one.
	Policy sim.Policy
}

// Assemble builds the machine, app and policy for spec under sc as plan
// describes — the one place a single-run experiment is put together, shared
// by every harness experiment, both CLIs and the daemon.
func Assemble(spec workload.Spec, sc Scale, plan Plan) (*Assembly, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var cfg sim.Config
	switch {
	case len(plan.Tiers) == 1:
		return nil, fmt.Errorf("harness: N-tier run needs at least two tiers, got 1")
	case len(plan.Tiers) > 0:
		cfg = sc.TieredMachineConfig(spec, plan.Tiers)
	default:
		cfg = sc.MachineConfig(spec, !plan.SmallPages)
	}
	if plan.Config != nil {
		plan.Config(&cfg)
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if plan.Machine != nil {
		plan.Machine(m)
	}
	app, err := sc.NewApp(spec, sc.Seed)
	if err != nil {
		return nil, err
	}
	if plan.SmallPages {
		app.DisableHugePages()
	}
	a := &Assembly{Spec: spec, Scale: sc, Machine: m, App: app, Policy: plan.Policy}
	switch {
	case plan.Policy != nil:
	case plan.SlowdownPct == 0:
		if plan.Placement != "" || plan.Tracker != "" {
			return nil, fmt.Errorf("harness: plan names engine %q/%q but no slowdown target", plan.Tracker, plan.Placement)
		}
		a.Policy = sim.NullPolicy{Interval: sc.PeriodNs}
	default:
		g, err := sc.Group(plan.SlowdownPct)
		if err != nil {
			return nil, err
		}
		seed := sc.Seed + engineSeedOffset
		if plan.Placement == "" || plan.Placement == "thermostat" {
			a.Engine = core.NewEngine(g, seed)
		} else {
			tracker := plan.Tracker
			if tracker == "" {
				tracker = "poison"
			}
			if a.Engine, err = core.ComposeByName(g, tracker, plan.Placement, seed); err != nil {
				return nil, err
			}
		}
		if plan.Engine != nil {
			plan.Engine(g, a.Engine)
		}
		a.Policy = a.Engine
	}
	return a, nil
}

// Outcome bundles one finished run with everything analyses need.
type Outcome struct {
	Spec    workload.Spec
	Scale   Scale
	Machine *sim.Machine
	App     *workload.App
	Engine  *core.Engine // nil for non-engine policies
	Result  *sim.RunResult
	// Telemetry is the run's collector: the machine's recorder when that is
	// a telemetry.Collector, or the one RunAll teed into the live plane
	// (nil otherwise).
	Telemetry *telemetry.Collector
	// Faults summarizes chaos fault handling over the whole run: all
	// zeros unless the machine config installed an injector. Engine runs
	// report through the engine (adding retry/quarantine counts); other
	// policies report the machine-level injector view.
	Faults chaos.Report
}

// Run drives the assembled run for the scale's schedule. tickHook, when
// non-nil, is sim.RunConfig.TickHook — the daemon's control point.
func (a *Assembly) Run(tickHook func(nowNs int64) error) (*Outcome, error) {
	sc := a.Scale
	res, err := sim.Run(a.Machine, a.App, a.Policy, sim.RunConfig{
		DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
		TickHook: tickHook,
	})
	if err != nil {
		return nil, fmt.Errorf("harness: %s under %s: %w", a.Spec.Name, a.Policy.Name(), err)
	}
	faults := a.Machine.FaultReport
	if a.Engine != nil {
		faults = a.Engine.FaultReport
	}
	col, _ := a.Machine.Recorder().(*telemetry.Collector)
	return &Outcome{Spec: a.Spec, Scale: sc, Machine: a.Machine, App: a.App,
		Engine: a.Engine, Result: res, Telemetry: col, Faults: faults()}, nil
}

// Run assembles plan for spec under sc and runs it to completion.
func Run(spec workload.Spec, sc Scale, plan Plan) (*Outcome, error) {
	a, err := Assemble(spec, sc, plan)
	if err != nil {
		return nil, err
	}
	return a.Run(nil)
}

// RunBaseline runs spec with everything in fast memory (all-DRAM): the zero
// Plan, named because every experiment pairs its arms with it.
func RunBaseline(spec workload.Spec, sc Scale) (*Outcome, error) {
	return Run(spec, sc, Plan{})
}

// ScaleByName returns the named profile: "tiny", "bench" or "repro".
func ScaleByName(name string) (Scale, bool) {
	for _, sc := range []Scale{Tiny(), Bench(), Repro()} {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scale{}, false
}

// WithDuration returns s running for ns with its warm-up kept inside the run.
func (s Scale) WithDuration(ns int64) Scale {
	s.DurationNs = ns
	if s.WarmupNs >= ns {
		s.WarmupNs = ns / 5
	}
	return s
}
