// Command thermostat-sim runs one application model under a chosen
// placement policy and reports throughput, slowdown-relevant counters, and
// the hot/cold footprint over time:
//
//	thermostat-sim -app redis -policy thermostat -slowdown 3
//	thermostat-sim -app cassandra-write-heavy -policy idle-demote
//	thermostat-sim -app mysql-tpcc -policy all-dram -duration 60
//
// Passing -footprint rescales the application model to a target total size
// (see DESIGN.md, "Scaling to terabytes"):
//
//	thermostat-sim -app scale-synth -footprint 64G
//
// Passing -tiers runs the engine over an N-tier hierarchy instead of the
// paper's two tiers, and additionally reports the per-tier-pair migration
// traffic matrix and the per-tier cost breakdown:
//
//	thermostat-sim -app redis -tiers dram,cxl,nvm -slowdown 3
//
// Passing -tenants runs several application models as co-located tenants of
// one machine: each tenant gets its own cgroup and scoped engine, and a
// fleet arbiter redistributes the shared DRAM pool between them every
// sample period (-slowdown is each tenant's SLO):
//
//	thermostat-sim -tenants redis,mysql-tpcc,web-search -slowdown 5
//
// Passing -serve starts the live observability plane for the
// duration of the run: Prometheus /metrics, /status, /tenants, a
// memtierd-style /dump?what=accessed census, pprof and expvar — strictly
// read-side, so exports stay byte-identical (see DESIGN.md):
//
//	thermostat-sim -app redis -serve localhost:9090 &
//	curl -s localhost:9090/metrics
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/chaos"
	"thermostat/internal/core"
	"thermostat/internal/daemon"
	"thermostat/internal/harness"
	"thermostat/internal/mem"
	"thermostat/internal/obsv"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// logger is the process-wide structured logger, configured by -log-format
// in main before any run starts.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

func main() {
	// The flags are the CLI spelling of one daemon.Config: each writes its
	// field directly and validate holds the rules.
	var cfg daemon.Config
	flag.StringVar(&cfg.App, "app", "redis", "application model (see -list)")
	flag.StringVar(&cfg.Policy, "policy", "thermostat", "thermostat, idle-demote, all-dram, or a placement policy ("+strings.Join(core.PolicyNames(), ", ")+") composed with -tracker")
	flag.StringVar(&cfg.Tracker, "tracker", "", "access tracker for composition policies ("+strings.Join(core.TrackerNames(), ", ")+"; default poison)")
	flag.Float64Var(&cfg.SlowdownPct, "slowdown", 3, "tolerable slowdown percent (thermostat)")
	flag.Float64Var(&cfg.IdleWindowS, "idle-window", 10, "idle window seconds (idle-demote)")
	flag.StringVar(&cfg.Scale, "scale", "repro", "scale profile: tiny, bench, repro")
	flag.StringVar(&cfg.Footprint, "footprint", "", "rescale the application model to this total footprint (e.g. 64G, 1T; binary units)")
	flag.Float64Var(&cfg.DurationS, "duration", 0, "override run length in (simulated) seconds")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Func("tiers", "comma-separated device `presets` for an N-tier run, fastest first (presets: "+strings.Join(mem.PresetNames(), ", ")+")", listFlag(&cfg.Tiers))
	flag.Func("tenants", "comma-separated application `models` to run as co-located tenants under fleet DRAM arbitration (-slowdown is each tenant's SLO)", listFlag(&cfg.Tenants))
	flag.IntVar(&cfg.Workers, "workers", 0, "goroutines for the baseline+policy run pair (0 = all cores, 1 = serial; results are identical at any setting)")
	list := flag.Bool("list", false, "list application models and exit")
	flag.StringVar(&cfg.Telemetry.Trace, "trace", "", "write a Chrome trace_event JSON file of the policy run (open in Perfetto)")
	flag.StringVar(&cfg.Telemetry.Metrics, "metrics", "", "write per-epoch metric snapshots of the policy run as JSONL")
	flag.BoolVar(&cfg.Telemetry.Epochs, "epochs", false, "print the per-epoch metric table for the policy run")
	flag.StringVar(&cfg.Serve, "serve", "", "serve the live observability plane (/metrics, /status, /tenants, /dump, pprof) on this address (e.g. localhost:9090) for the duration of the run")
	flag.StringVar(&cfg.LogFormat, "log-format", "text", "progress log format: text or json")
	flag.Float64Var(&cfg.Chaos.Rate, "chaos-rate", 0, "per-site fault injection probability for the policy run, 0..1 (0 disables; needs a migrating policy)")
	flag.Uint64Var(&cfg.Chaos.Seed, "chaos-seed", 1, "seed for the fault injector's dedicated RNG stream")
	flag.Float64Var(&cfg.Chaos.PermanentFraction, "chaos-permanent", 0, "fraction of injected migration faults that are permanent, 0..1")
	flag.Parse()

	if *list {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}

	if err := validate(cfg); err != nil {
		fatal(err)
	}
	logger, _ = obsv.NewLogger(os.Stderr, cfg.LogFormat) // format vetted above
	tracker := cfg.Tracker
	if tracker == "" {
		tracker = "poison"
	}

	spec, err := harness.ResolveSpec(cfg.App, cfg.Footprint)
	if err != nil {
		fatal(err)
	}
	sc, err := harness.ResolveScale(cfg.Scale, cfg.Seed, cfg.DurationS)
	if err != nil {
		fatal(err)
	}

	var pub *obsv.Publisher
	if cfg.Serve != "" {
		pub = obsv.NewPublisher()
		pub.SetInfo(obsv.Info{
			Binary: "thermostat-sim", App: cfg.App, Tracker: tracker,
			Policy: cfg.Policy, Scale: cfg.Scale, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		servers, err := obsv.ServeAll(pub, logger, cfg.Serve)
		if err != nil {
			fatal(err)
		}
		// ^C or SIGTERM drains in-flight scrapes before exiting instead of
		// cutting connections mid-response.
		stop := obsv.ShutdownOnSignal(5*time.Second, logger, servers...)
		defer stop()
		pub.SetPhase(obsv.PhaseRunning)
		defer pub.SetPhase(obsv.PhaseDone)
	}

	// A zero -chaos-rate builds no injector, so the config attaches
	// unconditionally.
	chaosCfg := chaos.Config{Seed: cfg.Chaos.Seed, Rate: cfg.Chaos.Rate, PermanentFraction: cfg.Chaos.PermanentFraction}

	tel := cfg.Telemetry
	if len(cfg.Tenants) > 0 {
		runFleet(cfg.Tenants, sc, tracker, cfg.Policy, cfg.SlowdownPct, cfg.Workers, fleetIO{
			tel: tel, chaos: chaosCfg, pub: pub,
		})
		return
	}

	// One plan per -policy arm; the hooks below attach to whichever it is.
	plan := harness.Plan{SlowdownPct: cfg.SlowdownPct, Placement: cfg.Policy, Tracker: cfg.Tracker}
	switch cfg.Policy {
	case "idle-demote":
		interval := int64(cfg.IdleWindowS * 1e9 * float64(sc.TimeDilate) / 4)
		plan = harness.Plan{Policy: &core.IdleDemote{Interval: interval, IdleScans: 4}}
	case "all-dram":
		plan = harness.Plan{}
	}

	if len(cfg.Tiers) > 0 {
		if plan.Tiers, err = harness.ResolveTiers(cfg.Tiers); err != nil {
			fatal(err)
		}
		runNTier(spec, sc, strings.Join(cfg.Tiers, ","), plan)
		return
	}

	// A collector attaches to the policy run when any telemetry output was
	// requested. Events are recorded in virtual time, so the files are
	// byte-identical at any -workers setting — and unchanged by -serve,
	// whose publisher tee is strictly read-side.
	var col *telemetry.Collector
	if tel.Trace != "" || tel.Metrics != "" || tel.Epochs {
		col = telemetry.NewCollector()
	}
	runLabel := spec.Name + "/" + cfg.Policy
	var rec telemetry.Recorder
	if pub != nil {
		rec = pub.Recorder(runLabel, col)
	} else if col != nil {
		rec = col
	}
	plan.Config = func(cfg *sim.Config) {
		if rec != nil {
			cfg.Recorder = rec
		}
		// Chaos applies only to the policy run; the all-DRAM baseline arm
		// below never migrates and stays uninjected.
		cfg.Chaos = chaosCfg
	}
	if pub != nil {
		plan.Engine = func(_ *cgroup.Group, eng *core.Engine) {
			eng.EnablePublish()
			pub.AttachEngine(runLabel, eng)
		}
	}

	// The all-DRAM baseline and the policy run are independent simulations;
	// fan the pair out across -workers goroutines.
	logger.Info("running baseline + policy pair", "app", spec.Name, "policy", cfg.Policy)
	outs, err := pool.Map(cfg.Workers, []pool.Task[*harness.Outcome]{
		{Label: spec.Name + "/baseline", Run: func() (*harness.Outcome, error) {
			return harness.RunBaseline(spec, sc)
		}},
		{Label: runLabel, Run: func() (*harness.Outcome, error) {
			return harness.Run(spec, sc, plan)
		}},
	})
	if err != nil {
		fatal(err)
	}
	base, outcome := outs[0], outs[1]

	emitTelemetry(col, tel)

	res := outcome.Result
	fp := res.FinalFootprint
	summary := report.NewTable("Run summary", "metric", "value")
	summary.AddF("application", spec.Name)
	summary.AddF("policy", res.PolicyName)
	summary.AddF("simulated_seconds", float64(res.DurationNs)/1e9)
	summary.AddF("ops", res.Ops)
	summary.AddF("throughput_ops_per_s", res.Throughput)
	summary.AddF("baseline_ops_per_s", base.Result.Throughput)
	summary.AddF("slowdown_pct", sim.Slowdown(base.Result, res)*100)
	summary.AddF("cold_fraction_pct", fp.ColdFraction()*100)
	summary.AddF("cold_2m_mb", float64(fp.Cold2M)/(1<<20))
	summary.AddF("cold_4k_mb", float64(fp.Cold4K)/(1<<20))
	summary.AddF("hot_2m_mb", float64(fp.Hot2M)/(1<<20))
	summary.AddF("slow_accesses", res.Metrics.SlowAccesses)
	summary.AddF("poison_faults", res.Metrics.PoisonFaults)
	summary.AddF("tlb_miss_rate", res.Metrics.TLB.MissRate())
	summary.AddF("llc_miss_rate", res.Metrics.LLC.MissRate())
	// §4.4: Thermostat's scan/sort work runs on spare cores; report its CPU
	// share of one core over the run.
	summary.AddF("daemon_cpu_core_share", float64(outcome.Machine.DaemonNs())/float64(res.DurationNs))
	if outcome.Engine != nil {
		st := outcome.Engine.Stats()
		summary.AddF("pages_sampled", st.Sampled)
		summary.AddF("demotions", st.Demotions)
		summary.AddF("promotions_corrections", st.Promotions)
	}
	if cfg.Chaos.Rate > 0 {
		f := outcome.Faults
		summary.AddF("chaos_faults_injected", f.Injected)
		summary.AddF("chaos_faults_permanent", f.Permanent)
		summary.AddF("migration_retries", f.Retried)
		summary.AddF("migration_rollbacks", f.RolledBack)
		summary.AddF("pages_quarantined", f.Quarantined)
		if f.Quarantined > 0 {
			logger.Warn("chaos quarantined pages this run",
				"quarantined", f.Quarantined, "injected", f.Injected)
		}
	}
	fmt.Println(summary.String())

	fmt.Println(report.SeriesTable("Footprint over time (bytes)",
		res.Cold2M, res.Cold4K, res.Hot2M, res.Hot4K).String())
}

// listFlag is the flag.Func setter of a comma-separated list flag. Entries
// keep their padding; the config layer trims.
func listFlag(dst *[]string) func(string) error {
	return func(s string) error {
		*dst = nil
		if s != "" {
			*dst = strings.Split(s, ",")
		}
		return nil
	}
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The rules are
// daemon.Config.Validate's — one copy shared with cmd/repro and thermostatd
// — plus the CLI's own two: it needs an app (the config layer leaves it
// optional for repro's multi-app runs) and a named policy.
func validate(cfg daemon.Config) error {
	if _, ok := workload.ByName(cfg.App); !ok {
		return fmt.Errorf("unknown application %q (try -list)", cfg.App)
	}
	if cfg.Policy == "" {
		return fmt.Errorf("unknown policy %q (thermostat, idle-demote, all-dram, or a composition policy)", cfg.Policy)
	}
	return cfg.Validate()
}

// fleetIO bundles the output, chaos, and observability hooks the fleet
// mode honors.
type fleetIO struct {
	tel   daemon.TelemetryConfig
	chaos chaos.Config
	pub   *obsv.Publisher
}

// runFleet runs the named application models as co-located tenants of one
// machine under fleet DRAM arbitration and prints the per-tenant report:
// each tenant's SLO is -slowdown, its engine the -tracker × -policy
// composition, and its measured slowdown comes from a solo all-DRAM
// baseline of the same workload (fanned across -workers).
func runFleet(names []string, sc harness.Scale, tracker, policy string, slowdown float64, workers int, fio fleetIO) {
	if policy == "thermostat" {
		// The paper's arm is the poison+threshold composition.
		tracker, policy = "poison", "threshold"
	}
	var tenants []harness.FleetTenant
	for _, name := range names {
		spec, _ := workload.ByName(strings.TrimSpace(name))
		// Leave Name empty: the harness default ("<spec>-<i>") keeps cgroup
		// names unique even when the same model is listed twice.
		tenants = append(tenants, harness.FleetTenant{
			Spec: spec, SLOPct: slowdown, Tracker: tracker, Policy: policy,
		})
	}
	opt := harness.FleetOptions{
		Scale: sc, Tenants: tenants, Workers: workers, Baselines: true,
		Publisher:    fio.pub,
		ConfigMutate: func(cfg *sim.Config) { cfg.Chaos = fio.chaos },
	}
	if fio.tel.Trace != "" || fio.tel.Metrics != "" || fio.tel.Epochs {
		opt.Telemetry = &harness.TelemetryOptions{}
	}
	logger.Info("running tenants under fleet arbitration",
		"tenants", len(tenants), "apps", strings.Join(names, ","))
	fo, err := harness.FleetRun(opt)
	if err != nil {
		fatal(err)
	}

	emitTelemetry(fo.Telemetry, fio.tel)

	// The fleet interleave time-shares the machine, so tenant throughput is
	// not comparable to the solo baseline's (that deficit is mostly
	// sharing, not memory slowdown); the solo all-DRAM tput is shown raw
	// for reference and the SLO verdict comes from the engine's estimate.
	r := fo.Result
	tbl := report.NewTable("Fleet run: per-tenant summary",
		"tenant", "slo%", "est_slow%", "sl_ok", "ops", "tput/s",
		"solo_dram_tput/s", "grant_mb", "fast_mb", "foot_mb")
	for _, tr := range r.Tenants {
		status := "meets"
		if tr.Rejected {
			status = "rejected"
		} else if tr.MeanSlowdownPct > tr.SLOPct {
			status = "MISSES"
		}
		solo := "-"
		if b := fo.Baselines[tr.Name]; b != nil {
			solo = fmt.Sprintf("%.0f", b.Throughput)
		}
		tbl.AddF(tr.Name, fmt.Sprintf("%.1f", tr.SLOPct),
			fmt.Sprintf("%.2f", tr.MeanSlowdownPct), status,
			tr.Ops, fmt.Sprintf("%.0f", tr.Throughput), solo,
			fmt.Sprintf("%.0f", float64(tr.GrantBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(tr.FastBytes)/(1<<20)),
			fmt.Sprintf("%.0f", float64(tr.FootprintBytes)/(1<<20)))
	}
	fmt.Println(tbl.String())

	fp := r.Global.FinalFootprint
	fmt.Printf("pool %.0f MB, %d arbiter periods; fleet placement %.0f MB hot / %.0f MB cold (%.1f%% cold)\n",
		float64(r.PoolBytes)/(1<<20), r.Periods,
		float64(fp.Hot2M+fp.Hot4K)/(1<<20), float64(fp.Cold())/(1<<20),
		100*fp.ColdFraction())
	if sv, err := harness.FleetSavings(fo); err == nil {
		fmt.Printf("fleet-wide DRAM cost saving vs all-DRAM provisioning: %.1f%%\n", 100*sv)
	}
}

// runNTier runs spec on the plan's device hierarchy and prints the N-tier
// reports: run summary, per-tier-pair migration traffic, per-tier cost.
func runNTier(spec workload.Spec, sc harness.Scale, names string, plan harness.Plan) {
	logger.Info("running N-tier hierarchy",
		"app", spec.Name, "tiers", names, "target_pct", plan.SlowdownPct)
	out, err := harness.Run(spec, sc, plan)
	if err != nil {
		fatal(err)
	}
	rep, err := harness.AnalyzeNTier(out)
	if err != nil {
		fatal(err)
	}

	res := out.Result
	st := out.Engine.Stats()
	summary := report.NewTable("Run summary", "metric", "value")
	summary.AddF("application", spec.Name)
	summary.AddF("tiers", names)
	summary.AddF("simulated_seconds", float64(res.DurationNs)/1e9)
	summary.AddF("ops", res.Ops)
	summary.AddF("throughput_ops_per_s", res.Throughput)
	summary.AddF("pages_sampled", st.Sampled)
	summary.AddF("demotions", st.Demotions)
	summary.AddF("promotions_corrections", st.Promotions)
	summary.AddF("sinks_to_lower_tiers", st.Sinks)
	summary.AddF("savings_vs_all_dram_pct", rep.Savings*100)
	fmt.Println(summary.String())
	fmt.Println(rep.TrafficTable().String())
	fmt.Println(rep.CostTable().String())
}

// emitTelemetry writes the requested exports of a run's collector (nil when
// no telemetry output was requested) and prints the per-epoch table.
func emitTelemetry(col *telemetry.Collector, tel daemon.TelemetryConfig) {
	if col == nil {
		return
	}
	if err := col.WriteFiles(tel.Trace, tel.Metrics); err != nil {
		fatal(err)
	}
	if tel.Trace != "" {
		logger.Info("wrote Chrome trace (open at https://ui.perfetto.dev)", "path", tel.Trace)
	}
	if tel.Metrics != "" {
		logger.Info("wrote per-epoch metrics", "path", tel.Metrics)
	}
	if tel.Epochs {
		fmt.Println(col.EpochTable())
	}
}

func fatal(err error) {
	logger.Error("thermostat-sim failed", "err", err)
	os.Exit(1)
}
