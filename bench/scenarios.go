package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/daemon"
	"thermostat/internal/fleet"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
	"thermostat/internal/sim"
	"thermostat/internal/stats"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// env is what one set-up call gets from the measurement loop.
type env struct {
	seed uint64
	// short shrinks every scenario's virtual duration for the unit tests.
	short bool
	// tr is non-nil on the traced run and selects the decorators.
	tr *tracer
	// dir is a scratch directory of this repeat's own (exports, checkpoints).
	dir string
}

// scenario is one benchmark workload: setup builds a repeat's inputs (timed
// as setup_s), the returned instance's run is the timed call.
type scenario struct {
	name string
	why  string
	// minRepeats is how many repeats a run makes even if --seconds is spent.
	minRepeats int
	// setupSamples is how many times set-up is performed and timed per
	// repeat (only the last is used); set-ups here take microseconds to
	// milliseconds, so their median needs many samples to be steady.
	setupSamples int
	setup        func(e env) (*instance, error)
	// baseline, when set, runs the all-DRAM reference the slowdown is
	// measured against (once, outside every timed section).
	baseline func(e env) (*sim.RunResult, error)
	// sloPct is the tolerable-slowdown target for single-app scenarios.
	sloPct float64
	// reseed lets the measurement loop move on to another seed when the very
	// first repeat aborts. Only fleet-night sets it, for a simulator defect
	// this benchmark may not fix: see the note at fleetNight.
	reseed bool
}

type instance struct {
	run func(cal *calibrator) (*outcome, error)
	// cap is where the traced run captures requests for the component replays.
	cap *capture
}

// phase is one separately bracketed part of a timed call.
type phase struct {
	name   string
	wallNs int64
	ops    uint64
}

// outcome is everything one timed call yields.
type outcome struct {
	ops uint64
	// parts are the digests of the simulations the call ran; the traced run
	// of every scenario reproduces parts[0].
	parts []string
	// result is the run whose virtual metrics the scenario reports.
	result     *sim.RunResult
	warmupNs   int64
	stateBytes uint64
	coreState  uint64
	machines   []*sim.Machine
	engines    []*core.Engine
	// failures lists tripped scenario-specific checks.
	failures []string
	phases   []phase
	// fleetRes and collector carry scenario-specific detail for per-layer
	// metrics.
	fleetRes  *fleet.Result
	collector *telemetry.Collector
	// restoreReplayFrac is the share of the restored run that re-executed
	// already-checkpointed virtual time.
	restoreReplayFrac float64
}

func (o *outcome) digest() string {
	h := sha256.New()
	for _, p := range o.parts {
		io.WriteString(h, p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// digestRun fingerprints everything a simulation reports: op count, every
// machine counter, the latency histogram, final footprint, the per-window
// series, and each engine's lifetime counters. Names are left out so the
// traced composition ("poison+threshold") matches core.NewEngine's
// ("thermostat").
func digestRun(res *sim.RunResult, engStats ...core.Stats) string {
	h := sha256.New()
	m := res.Metrics
	fmt.Fprintf(h, "%d|%d|%v|%d|%d|%v|%d|%+v|%+v|%d|%d|", res.Ops, res.DurationNs, res.Throughput,
		m.Accesses, m.SlowAccesses, m.TierAccesses, m.PoisonFaults, m.TLB, m.LLC, m.ClockNs, m.MigrationBytes)
	if l := m.AccessLatency; l != nil {
		fmt.Fprintf(h, "%d|%d|%d|%d|%d|", l.Count(), l.Sum(), l.Max(), l.Quantile(0.5), l.Quantile(0.99))
	}
	fmt.Fprintf(h, "%+v|", res.FinalFootprint)
	for _, s := range []*stats.Series{res.SlowRate, res.Cold2M, res.Cold4K, res.Hot2M, res.Hot4K} {
		fmt.Fprintf(h, "%v|%v|", s.Times, s.Values)
	}
	for _, st := range engStats {
		fmt.Fprintf(h, "%+v|", st)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

func scenarios() []*scenario {
	return []*scenario{redisWalk(), websearchTLBHit(), bigmemScan(), fleetNight(), daemonRestore()}
}

func scenarioByName(name string) *scenario {
	for _, s := range scenarios() {
		if s.name == name {
			return s
		}
	}
	return nil
}

// shorten cuts a profile's virtual duration for the tests.
func shorten(sc harness.Scale, short bool) harness.Scale {
	if short {
		sc.DurationNs /= 4
		sc.WarmupNs /= 4
	}
	return sc
}

// newThermostat composes the paper's engine; with a tracer, from decorated
// parts (core.NewEngine is core.Compose of exactly these two).
func newThermostat(g *cgroup.Group, seed uint64, tr *tracer) *core.Engine {
	if tr == nil {
		return core.NewEngine(g, seed)
	}
	tick := &tickScope{tr: tr}
	return core.Compose(g,
		tracedTracker{core.NewPoisonTracker(g, seed), tick},
		tracedPolicy{core.NewThresholdPolicy(), tick})
}

// preInit hides an already-initialized app's Init from sim.Run, so mapping
// the footprint is set-up and not steady state. Embedding keeps NextBatch.
type preInit struct{ *workload.App }

func (preInit) Init(*sim.Machine) error { return nil }

// solo builds the single-app scenarios exactly as harness.RunThermostatWith
// assembles a run — Scale.MachineConfig → sim.New → Scale.NewApp →
// Scale.Group → core.NewEngine(g, seed+0x7e) → sim.Run — except that
// app.Init runs in set-up and a calibration burst fires at every policy tick.
func solo(name, why string, minRepeats int, spec func() workload.Spec, scale func() harness.Scale) *scenario {
	const sloPct = 3
	profile := func(e env) harness.Scale {
		sc := shorten(scale(), e.short)
		sc.Seed = e.seed
		return sc
	}
	return &scenario{
		name: name, why: why, minRepeats: minRepeats, setupSamples: 5, sloPct: sloPct,
		baseline: func(e env) (*sim.RunResult, error) {
			out, err := harness.RunBaseline(spec(), profile(e))
			if err != nil {
				return nil, err
			}
			return out.Result, nil
		},
		setup: func(e env) (*instance, error) {
			sc := profile(e)
			sp := spec()
			m, err := sim.New(sc.MachineConfig(sp, true))
			if err != nil {
				return nil, err
			}
			app, err := sc.NewApp(sp, sc.Seed)
			if err != nil {
				return nil, err
			}
			var runApp sim.App = preInit{app}
			inst := &instance{}
			if e.tr != nil {
				inst.cap = &capture{}
				ta := &tracedApp{App: app, tr: e.tr, warmupNs: sc.WarmupNs, cap: inst.cap}
				if err := ta.Init(m); err != nil {
					return nil, err
				}
				ta.initDone = true
				runApp = ta
			} else if err := app.Init(m); err != nil {
				return nil, err
			}
			g, err := sc.Group(sloPct)
			if err != nil {
				return nil, err
			}
			eng := newThermostat(g, sc.Seed+0x7e, e.tr)
			inst.run = func(cal *calibrator) (*outcome, error) {
				res, err := sim.Run(m, runApp, eng, sim.RunConfig{
					DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
					TickHook: tickBurst(cal, e.tr),
				})
				if err != nil {
					return nil, err
				}
				return &outcome{
					ops: res.Ops, parts: []string{digestRun(res, eng.Stats())},
					result: res, warmupNs: sc.WarmupNs,
					stateBytes: m.StateBytes() + eng.StateBytes(), coreState: eng.StateBytes(),
					machines: []*sim.Machine{m}, engines: []*core.Engine{eng},
				}, nil
			}
			return inst, nil
		},
	}
}

// tickBurst is the RunConfig.TickHook that samples the calibration kernel at
// every policy tick, so a disturbance in the middle of a repeat is seen.
func tickBurst(cal *calibrator, tr *tracer) func(int64) error {
	return func(int64) error {
		if tr != nil {
			id := tr.begin("bench.calib")
			defer tr.end(id)
		}
		cal.burst()
		return nil
	}
}

func redisWalk() *scenario {
	return solo("redis-walk",
		"redis at tiny scale: 64% of accesses miss the scaled TLB, so page walk and poison-fault dispatch carry the access path",
		14, workload.Redis, func() harness.Scale {
			sc := harness.Tiny()
			sc.DurationNs, sc.WarmupNs = 4e9, 1e9
			return sc
		})
}

func websearchTLBHit() *scenario {
	return solo("websearch-tlbhit",
		"web-search at bench scale: ~90% TLB hits and 50% LLC misses, so TLB lookup, LLC and request generation dominate; counterweight to redis-walk",
		14, workload.WebSearch, func() harness.Scale {
			sc := harness.Bench()
			sc.DurationNs, sc.WarmupNs = 20e9, 4e9
			return sc
		})
}

// bigmemFootprint is the simulated footprint of bigmem-scan.
const bigmemFootprint = 16 << 30

func bigmemScan() *scenario {
	return solo("bigmem-scan",
		"16 GiB synthetic footprint, dense table, serial scans: the engine tick (split scan, policy, mover) is most of the wall time and the access path the minority",
		6, func() workload.Spec {
			// harness.RunScalePoint's shape: only the cold reserve grows, so the
			// hot and warm working sets keep their 1 GiB-spec sizes.
			spec := workload.ScaleSynthetic()
			var rest uint64
			cold := -1
			for i, seg := range spec.Segments {
				if seg.Name == "cold" {
					cold = i
				} else {
					rest += seg.Bytes
				}
			}
			spec.Segments[cold].Bytes = bigmemFootprint - rest
			return spec
		}, func() harness.Scale {
			sc := harness.ScaleBenchProfile()
			sc.DurationNs, sc.WarmupNs = 5e9, 1e9
			return sc
		})
}

// fleetNight assembles harness.FleetNight's machine, cgroup tree and
// tenants by hand (the harness entry point builds and runs in one call, which
// would leave nothing to time as set-up and nowhere to put the decorators)
// and runs them under fleet.Run. TestFleetAssemblyMatchesHarness pins the
// assembly to harness.FleetRun's result.
//
// At this commit about one seed in thirteen (10, 13 and 26 of the first
// forty) aborts the fleet, in harness.FleetRun just as here, with "already in
// the bottom (slow) tier": Engine.Squeeze demotes a page the poison tracker
// has mid-sample, the tracker still reports an estimate for it (its wasCold
// was decided at sampling time), and ThresholdPolicy.Place demotes it a
// second time. A benchmark workload must not fail and this change may not
// touch the simulator, so fleet-night skips such seeds (scenario.reseed) and
// says so in the result's notes.
func fleetNight() *scenario {
	return &scenario{
		name:       "fleet-night",
		why:        "four tenants on one machine under fleet.Run: every access goes through per-op Machine.Access (never AccessBatch), with WRR interleave, arbiter rounds, cgroup charging, an arrival and a departure",
		minRepeats: 6, setupSamples: 5, reseed: true,
		setup: func(e env) (*instance, error) {
			sc := shorten(harness.Tiny(), e.short)
			sc.Seed = e.seed
			tens, pool := fleetNightCast(sc)
			cfg := sc.MachineConfig(tens[0].Spec, true)
			for _, t := range tens[1:] {
				extra := sc.MachineConfig(t.Spec, true)
				cfg.FastSpec.Capacity += extra.FastSpec.Capacity
				cfg.SlowSpec.Capacity += extra.SlowSpec.Capacity
			}
			cfg.FastSpec.Capacity = pool
			m, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			rootParams := cgroup.Default()
			rootParams.SamplePeriodNs = sc.PeriodNs
			rootParams.SlowMemLatencyNs = 1000 * sc.TimeDilate
			root, err := cgroup.NewGroup("fleet", rootParams)
			if err != nil {
				return nil, err
			}
			inst := &instance{}
			if e.tr != nil {
				inst.cap = &capture{}
			}
			var members []fleet.Member
			var engines []*core.Engine
			for i, t := range tens {
				p := cgroup.Default()
				p.TolerableSlowdownPct = t.SLOPct
				p.SamplePeriodNs = sc.PeriodNs
				p.SlowMemLatencyNs = 1000 * sc.TimeDilate
				g, err := root.NewChild(t.Name, p)
				if err != nil {
					return nil, err
				}
				seed := sc.Seed + uint64(i)*0x9e3779b97f4a7c15
				app, err := sc.NewApp(t.Spec, seed)
				if err != nil {
					return nil, err
				}
				var scoped core.ScopedApp = app
				if e.tr != nil {
					scoped = &tracedApp{App: app, tr: e.tr, warmupNs: sc.WarmupNs, cap: inst.cap}
				}
				eng := newThermostat(g, seed+0x7e, e.tr)
				ten := core.NewTenant(t.Name, scoped, g, eng)
				ten.SLOPct, ten.Priority, ten.Share, ten.FloorBytes = t.SLOPct, t.Priority, t.Share, t.FloorBytes
				members = append(members, fleet.Member{Tenant: ten, ArriveNs: t.ArriveNs,
					DepartNs: t.DepartNs, EstBytes: fleetEstBytes(t, sc)})
				engines = append(engines, eng)
			}
			inst.run = func(*calibrator) (*outcome, error) {
				res, err := fleet.Run(m, fleet.Config{
					Root: root, DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs,
					WindowNs: sc.PeriodNs, ArbiterPeriodNs: sc.PeriodNs,
				}, members)
				if err != nil {
					return nil, err
				}
				out := &outcome{
					ops: res.Global.Ops, parts: []string{digestFleet(res)},
					result: res.Global, warmupNs: sc.WarmupNs,
					stateBytes: m.StateBytes(), machines: []*sim.Machine{m},
					engines: engines, fleetRes: res,
				}
				for _, eng := range engines {
					out.coreState += eng.StateBytes()
				}
				out.stateBytes += out.coreState
				out.failures = checkFleet(res)
				return out, nil
			}
			return inst, nil
		},
	}
}

// fleetNightCast is harness.FleetNight's population and pool: floors at 10 %
// of each tenant's estimated footprint, pool = initial population + 1/12.
func fleetNightCast(sc harness.Scale) ([]harness.FleetTenant, uint64) {
	tens := harness.FleetNightTenants(sc)
	var pool uint64
	for i := range tens {
		if tens[i].Priority < 1 {
			tens[i].Priority = 1
		}
		if tens[i].Share < 1 {
			tens[i].Share = 1
		}
		est := fleetEstBytes(tens[i], sc)
		tens[i].FloorBytes = est / 10
		if tens[i].ArriveNs == 0 {
			pool += est
		}
	}
	return tens, pool + pool/12
}

// fleetEstBytes is the harness's admission estimate of a tenant's mapped
// bytes: committed bytes divided down plus huge-page rounding slop.
func fleetEstBytes(t harness.FleetTenant, sc harness.Scale) uint64 {
	var fp uint64
	for _, seg := range t.Spec.Segments {
		fp += seg.Bytes
	}
	if g := t.Spec.Growth; g != nil {
		fp += g.ChunkBytes * uint64(g.MaxChunks)
	}
	return fp/sc.Div + uint64(len(t.Spec.Segments)+1)*(2<<20)
}

func digestFleet(res *fleet.Result) string {
	var st []core.Stats
	h := sha256.New()
	for _, t := range res.Tenants {
		st = append(st, t.Stats)
		fmt.Fprintf(h, "%s|%d|%v|%v|%d|%d|%d|%d|%d|%v|", t.Name, t.Ops, t.Throughput, t.MeanSlowdownPct,
			t.GrantBytes, t.FastBytes, t.FootprintBytes, t.ArrivedNs, t.DepartedNs, t.Rejected)
	}
	fmt.Fprintf(h, "%d|%d|%s", res.PoolBytes, res.Periods, digestRun(res.Global, st...))
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// checkFleet is fleet-night's extra correctness check: nobody was refused
// admission, and the grants of the final arbiter period add up to the pool.
func checkFleet(res *fleet.Result) []string {
	var fails []string
	for _, t := range res.Tenants {
		if t.Rejected {
			fails = append(fails, "tenant "+t.Name+" rejected")
		}
	}
	var last uint64
	for _, s := range res.Series {
		if s.Epoch > last {
			last = s.Epoch
		}
	}
	var grants uint64
	for _, s := range res.Series {
		if s.Epoch == last {
			grants += s.GrantBytes
		}
	}
	if grants != res.PoolBytes {
		fails = append(fails, fmt.Sprintf("final grants %d != pool %d", grants, res.PoolBytes))
	}
	return fails
}

// daemonConfig is the operator configuration daemon-restore runs, exports
// and checkpoint rooted at dir.
func daemonConfig(e env, dir string) daemon.Config {
	cfg := daemon.Config{
		App: "cassandra", Policy: "thermostat", Scale: "tiny", SlowdownPct: 3,
		DurationS: 8, Seed: e.seed,
		Telemetry: daemon.TelemetryConfig{
			Trace:   filepath.Join(dir, "trace.json"),
			Metrics: filepath.Join(dir, "metrics.jsonl"),
		},
	}
	if e.short {
		cfg.DurationS = 4
	}
	cfg.Daemon.CheckpointEveryEpochs = 4
	return cfg
}

// daemonScale is the profile daemon.Runner derives from daemonConfig: tiny,
// with duration_s overriding the run length and the warm-up kept.
func daemonScale(e env) harness.Scale {
	sc := harness.Tiny()
	sc.Seed = e.seed
	sc.DurationNs = int64(daemonConfig(e, "").DurationS * 1e9)
	return sc
}

// daemonCrashEpoch is where phase (b) is killed: two epochs past the third
// checkpoint, so the restore replays 12 epochs and then runs 8 live.
func daemonCrashEpoch(e env) uint64 {
	if e.short {
		return 6
	}
	return 14
}

func daemonRestore() *scenario {
	const sloPct = 3
	return &scenario{
		name:       "daemon-restore",
		why:        "the operator path through daemon.Runner with telemetry always on: a full cassandra run, a crash at epoch 14, and a checkpoint restore that replays from the seed; exports must match byte for byte",
		minRepeats: 6, setupSamples: 5, sloPct: sloPct,
		baseline: func(e env) (*sim.RunResult, error) {
			out, err := harness.RunBaseline(workload.Cassandra(workload.WriteHeavy), daemonScale(e))
			if err != nil {
				return nil, err
			}
			return out.Result, nil
		},
		setup: func(e env) (*instance, error) {
			if e.tr != nil {
				return daemonTraced(e, sloPct)
			}
			refDir, crashDir := filepath.Join(e.dir, "ref"), filepath.Join(e.dir, "crash")
			for _, d := range []string{refDir, crashDir} {
				if err := os.MkdirAll(d, 0o755); err != nil {
					return nil, err
				}
			}
			// The config travels as a document, as it would from a file.
			refCfg, err := daemon.Decode(daemonConfig(e, refDir).Encode())
			if err != nil {
				return nil, err
			}
			crashCfg, err := daemon.Decode(daemonConfig(e, crashDir).Encode())
			if err != nil {
				return nil, err
			}
			crashCfg.Daemon.CheckpointPath = filepath.Join(crashDir, "daemon.ckpt")
			pubs := [3]*obsv.Publisher{obsv.NewPublisher(), obsv.NewPublisher(), obsv.NewPublisher()}
			return &instance{run: func(cal *calibrator) (*outcome, error) {
				out := &outcome{warmupNs: daemonScale(e).WarmupNs}
				timed := func(name string, r *daemon.Runner, wantErr error) (*daemon.RunOutcome, error) {
					t0 := time.Now()
					ro, err := r.Run()
					wall := time.Since(t0).Nanoseconds()
					cal.burst()
					if !errors.Is(err, wantErr) {
						return nil, fmt.Errorf("daemon %s: %v", name, err)
					}
					out.phases = append(out.phases, phase{name, wall, ro.Result.Ops})
					out.ops += ro.Result.Ops
					out.parts = append(out.parts, digestRun(ro.Result, ro.Engine.Stats()))
					out.machines = append(out.machines, ro.Machine)
					out.engines = append(out.engines, ro.Engine)
					return ro, nil
				}
				full, err := timed("full", &daemon.Runner{Config: refCfg, NoPacing: true, Publisher: pubs[0]}, nil)
				if err != nil {
					return nil, err
				}
				if _, err := timed("crash", &daemon.Runner{Config: crashCfg, NoPacing: true,
					Publisher: pubs[1], CrashAfterEpoch: daemonCrashEpoch(e)}, daemon.ErrSimulatedCrash); err != nil {
					return nil, err
				}
				cp, err := daemon.ReadCheckpoint(crashCfg.Daemon.CheckpointPath)
				if err != nil || cp == nil {
					return nil, fmt.Errorf("daemon: read checkpoint: %v (found %v)", err, cp != nil)
				}
				if _, err := timed("restore", &daemon.Runner{Config: cp.Config, Timeline: cp.Timeline,
					Restore: cp, NoPacing: true, Publisher: pubs[2]}, nil); err != nil {
					return nil, err
				}
				out.result = full.Result
				out.collector = full.Collector
				out.stateBytes = full.Machine.StateBytes() + full.Engine.StateBytes()
				out.coreState = full.Engine.StateBytes()
				out.restoreReplayFrac = float64(cp.VirtualNs) / float64(full.Result.DurationNs)
				for _, name := range []string{"trace.json", "metrics.jsonl"} {
					a, errA := os.ReadFile(filepath.Join(refDir, name))
					b, errB := os.ReadFile(filepath.Join(crashDir, name))
					if errA != nil || errB != nil || len(a) == 0 || !bytes.Equal(a, b) {
						out.failures = append(out.failures, "restored "+name+" differs from the uninterrupted run's")
					}
				}
				return out, nil
			}}, nil
		},
	}
}

// daemonTraced is daemon-restore's traced run. daemon.Runner assembles its
// machine, app, engine and recorder privately, so the traced run assembles
// phase (a) the way Runner.assemble does — same profile, seeds and always-on
// collector — from decorated parts, and must reproduce phase (a)'s digest.
func daemonTraced(e env, sloPct float64) (*instance, error) {
	sc := daemonScale(e)
	sp := workload.Cassandra(workload.WriteHeavy)
	col := telemetry.NewCollector()
	cfg := sc.MachineConfig(sp, true)
	cfg.Recorder = tracedRecorder{col, e.tr}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	app, err := sc.NewApp(sp, sc.Seed)
	if err != nil {
		return nil, err
	}
	inst := &instance{cap: &capture{}}
	ta := &tracedApp{App: app, tr: e.tr, warmupNs: sc.WarmupNs, cap: inst.cap}
	g, err := sc.Group(sloPct)
	if err != nil {
		return nil, err
	}
	eng := newThermostat(g, sc.Seed+0x7e, e.tr)
	inst.run = func(cal *calibrator) (*outcome, error) {
		res, err := sim.Run(m, ta, eng, sim.RunConfig{
			DurationNs: sc.DurationNs, WarmupNs: sc.WarmupNs, WindowNs: sc.PeriodNs,
			TickHook: tickBurst(cal, e.tr),
		})
		if err != nil {
			return nil, err
		}
		return &outcome{
			ops: res.Ops, parts: []string{digestRun(res, eng.Stats())},
			result: res, warmupNs: sc.WarmupNs, collector: col,
			stateBytes: m.StateBytes() + eng.StateBytes(), coreState: eng.StateBytes(),
			machines: []*sim.Machine{m}, engines: []*core.Engine{eng},
		}, nil
	}
	return inst, nil
}
