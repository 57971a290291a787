package daemon

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
)

// ErrSimulatedCrash is returned by Run when CrashAfterEpoch fires: the run
// stops dead at that epoch boundary with no telemetry flush, exactly as a
// kill -9 would leave things on disk (the last checkpoint survives, the
// exports do not). The checkpoint/restore bit-identity test uses it to
// "crash" in-process.
var ErrSimulatedCrash = errors.New("daemon: simulated crash")

// ErrHalted is returned by Run when the degradation ladder reaches Halted:
// the run was stopped at an epoch boundary and telemetry was flushed, but
// the outcome is a deliberate failure, not a completion.
var ErrHalted = errors.New("daemon: halted by degradation ladder")

// Runner owns one supervised simulation run: it assembles the machine,
// app, and engine from a Config, drives the run with a deterministic tick
// hook (reload timeline, degradation ladder, checkpoints, pacing), and
// flushes telemetry on every exit path. Configure the exported fields, then
// call Run once; Reload and Stop are safe from other goroutines for the
// duration.
type Runner struct {
	// Config is the starting configuration (must pass ValidateForDaemon).
	Config Config
	// Logger receives lifecycle and health transitions (nil = discard).
	Logger *slog.Logger
	// Publisher, when set, mirrors the run for the observability server
	// and carries the /status health field.
	Publisher *obsv.Publisher
	// Timeline is a preloaded reload journal: each entry's Config is
	// applied at the first epoch boundary with virtual time >=
	// ApplyAtNs. A cold start fed a live run's journal replays its
	// reloads bit-identically; a restore replays its own.
	Timeline []TimelineEntry
	// Restore resumes from a checkpoint: the run replays from the seed
	// with the checkpoint's journal preloaded (pacing and checkpoint
	// writes suppressed), verifies the state digest at SavedAtEpoch, and
	// then continues live. The caller must set Config and Timeline from
	// the checkpoint (see cmd/thermostatd).
	Restore *Checkpoint
	// NoPacing ignores daemon.epoch_wall_ms (tests and batch replays).
	NoPacing bool
	// CrashAfterEpoch, when > 0, simulates a kill -9 at that epoch
	// boundary (after any due checkpoint write): Run returns
	// ErrSimulatedCrash without flushing exports. Test hook.
	CrashAfterEpoch uint64

	mu      sync.Mutex
	cfg     Config  // current effective config (base + applied reloads)
	pending *Config // latest posted reload, coalesced until the next epoch
	stopReq bool
	health  Health
	epoch   uint64
	journal []TimelineEntry // applied reload entries, in order

	col *telemetry.Collector // survives panics for the flush path
}

// RunOutcome is everything a completed (or stopped, or halted) run yields.
type RunOutcome struct {
	Result    *sim.RunResult
	Machine   *sim.Machine
	Engine    *core.Engine
	Collector *telemetry.Collector
	// Config is the effective configuration at run end.
	Config Config
	// Timeline is the applied reload journal (preloaded + live entries).
	Timeline []TimelineEntry
	// Epochs is the number of completed policy ticks.
	Epochs uint64
	// Health is the final ladder position.
	Health Health
}

// runState bundles the live simulation objects the tick hook manipulates.
type runState struct {
	sc     harness.Scale
	m      *sim.Machine
	eng    *core.Engine
	group  *cgroup.Group
	shed   *shedRecorder
	ladder *ladder

	basePeriodNs int64
	preload      []TimelineEntry // unapplied timeline entries, in order
	replaying    bool            // restoring: suppress pacing/checkpoints/reloads
	halted       bool
	crashed      bool
	lastFaults   uint64 // chaos activity total at the previous epoch
}

// Reload validates next and queues it for the coming epoch boundary.
// Returns the permitted changes (empty = no-op, nothing queued). Structural
// changes and chaos enablement reject the whole reload. Safe to call from
// signal handlers and HTTP handlers while Run is in flight.
func (r *Runner) Reload(next Config) ([]string, error) {
	if err := next.ValidateForDaemon(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.cfg
	if r.pending != nil {
		cur = *r.pending // diff against the latest queued state
	}
	changes, err := DiffReload(cur, next)
	if err != nil {
		return nil, err
	}
	if len(changes) == 0 {
		return nil, nil
	}
	r.pending = &next
	return changes, nil
}

// Stop requests a graceful stop: the run ends cleanly at the next epoch
// boundary, telemetry is flushed, and Run returns a nil error.
func (r *Runner) Stop() {
	r.mu.Lock()
	r.stopReq = true
	r.mu.Unlock()
}

// Health returns the current ladder position.
func (r *Runner) Health() Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// Journal returns a copy of the applied reload timeline so far.
func (r *Runner) Journal() []TimelineEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TimelineEntry(nil), r.journal...)
}

// Epoch returns the number of completed policy ticks.
func (r *Runner) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Run executes the configured simulation to completion under supervision:
// a panic in the run is recovered, logged with a stack, and converted into
// a nonzero-exit error after telemetry has been flushed. Telemetry exports
// (telemetry.trace / telemetry.metrics) are written on every exit path —
// completion, graceful stop, halt, abort, panic — except a simulated
// crash. Run may be called once per Runner.
func (r *Runner) Run() (*RunOutcome, error) {
	out, err := r.runSupervised()
	if errors.Is(err, ErrSimulatedCrash) {
		return out, err // a real kill -9 flushes nothing; neither do we
	}
	if werr := r.writeExports(); werr != nil && err == nil {
		err = werr
	}
	if err == nil && out != nil && out.Health == Halted {
		err = ErrHalted
	}
	return out, err
}

// runSupervised is Run's panic boundary.
func (r *Runner) runSupervised() (out *RunOutcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.logger().Error("run panicked", "panic", p, "stack", string(debug.Stack()))
			out, err = nil, fmt.Errorf("daemon: run panicked: %v", p)
		}
	}()
	return r.run()
}

func (r *Runner) run() (*RunOutcome, error) {
	cfg := r.Config.Normalize()
	if err := cfg.ValidateForDaemon(); err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cfg = cfg
	r.journal = nil
	r.health = Healthy
	r.epoch = 0
	r.mu.Unlock()

	rs, asm, err := r.assemble(cfg)
	if err != nil {
		return nil, err
	}
	r.setPublishedHealth(Healthy)

	res, err := asm.Run(func(now int64) error { return r.tick(rs, now) })
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	finalCfg := r.cfg
	finalHealth := r.health
	epochs := r.epoch
	journal := append([]TimelineEntry(nil), r.journal...)
	r.mu.Unlock()
	out := &RunOutcome{
		Result: res.Result, Machine: rs.m, Engine: rs.eng, Collector: r.col,
		Config: finalCfg, Timeline: journal, Epochs: epochs, Health: finalHealth,
	}
	if rs.crashed {
		return out, ErrSimulatedCrash
	}
	// A run that completed (rather than halting) has no further use for its
	// checkpoint; leaving it would make the next start "restore" a finished
	// run. Best-effort: a file that was never written, or cannot be removed,
	// only costs a failed restore later.
	if !rs.halted && finalCfg.Daemon.CheckpointPath != "" {
		_ = os.Remove(finalCfg.Daemon.CheckpointPath)
	}
	return out, nil
}

// assemble resolves cfg (Config.Resolve) and builds the run through
// harness.Assemble — the same resolution and assembly the CLIs use, so a
// daemon run of a config is bit-identical to the equivalent CLI run.
func (r *Runner) assemble(cfg Config) (*runState, *harness.Assembly, error) {
	spec, sc, plan, err := cfg.Resolve()
	if err != nil {
		return nil, nil, err
	}
	// The daemon always collects telemetry (bounded ring), so a reload can
	// turn on exports mid-run and the crash-flush path always has data.
	r.col = telemetry.NewCollector()
	label := cfg.App + "/" + cfg.Policy
	inner, census := harness.Observe(r.Publisher, label, r.col)
	shed := &shedRecorder{inner: inner}
	withChaos := plan.Config
	plan.Config = func(c *sim.Config) {
		withChaos(c)
		c.Recorder = shed
	}
	plan.Engine = func(_ *cgroup.Group, eng *core.Engine) { census(label, eng) }
	asm, err := harness.Assemble(spec, sc, plan)
	if err != nil {
		return nil, nil, err
	}

	rs := &runState{
		sc: sc, m: asm.Machine, eng: asm.Engine, group: asm.Engine.Group(), shed: shed,
		ladder:       &ladder{cfg: cfg.Daemon.Degrade},
		basePeriodNs: sc.PeriodNs,
		preload:      append([]TimelineEntry(nil), r.Timeline...),
		replaying:    r.Restore != nil,
	}
	return rs, asm, nil
}

// tick is the deterministic control point, called by sim.Run after every
// policy tick on the simulation goroutine. Everything that can change the
// run — reload application, ladder transitions, checkpoints, stop — lands
// here, at an epoch boundary in virtual time.
func (r *Runner) tick(rs *runState, now int64) error {
	r.mu.Lock()
	r.epoch++
	epoch := r.epoch
	r.mu.Unlock()

	// Preloaded journal entries first (cold-start differential, restore
	// replay): due when the run reaches their virtual timestamp.
	for len(rs.preload) > 0 && now >= rs.preload[0].ApplyAtNs {
		e := rs.preload[0]
		rs.preload = rs.preload[1:]
		r.applyEntry(rs, e, false)
	}
	// Then live reloads, stamped with this boundary's virtual time so the
	// journal replays them at exactly this tick. Held during replay: the
	// preloaded journal owns the timeline until the restore point passes.
	if !rs.replaying {
		r.mu.Lock()
		p := r.pending
		r.pending = nil
		r.mu.Unlock()
		if p != nil {
			r.applyEntry(rs, TimelineEntry{ApplyAtNs: now, Epoch: epoch, Config: *p}, true)
		}
	}

	// One epoch verdict for the ladder: did chaos activity grow? A frozen
	// engine migrates nothing and so can inject nothing — in
	// quarantine-only the verdict instead asks whether quarantine pressure
	// persists (sentences still running), which is what decides between
	// climbing back and halting.
	rep := rs.eng.FaultReport()
	activity := rep.Injected + rep.RolledBack + rep.Quarantined
	faulty := activity > rs.lastFaults
	rs.lastFaults = activity
	if !faulty && rs.ladder.health == QuarantineOnly {
		faulty = rs.eng.ActiveQuarantinedPages() > 0
	}
	if h, changed := rs.ladder.Observe(faulty); changed {
		r.transition(rs, h, epoch, now)
	}

	// Restore point: prove the replayed state is the checkpointed state.
	if rs.replaying && epoch == r.Restore.SavedAtEpoch {
		got := stateDigest(epoch, now, rs.m, rs.eng, r.col.EventCount())
		if got != r.Restore.Digest {
			return fmt.Errorf("daemon: restore diverged at epoch %d: digest %s, checkpoint has %s",
				epoch, got, r.Restore.Digest)
		}
		rs.replaying = false
		r.logger().Info("restored from checkpoint",
			"epoch", epoch, "virtual_ns", now, "digest", got)
	}

	r.mu.Lock()
	cfg := r.cfg
	stop := r.stopReq
	r.mu.Unlock()

	if !rs.replaying && cfg.Daemon.CheckpointPath != "" &&
		cfg.Daemon.CheckpointEveryEpochs > 0 && epoch%uint64(cfg.Daemon.CheckpointEveryEpochs) == 0 {
		cp := &Checkpoint{
			Version: checkpointVersion, SavedAtEpoch: epoch, VirtualNs: now,
			Digest: stateDigest(epoch, now, rs.m, rs.eng, r.col.EventCount()),
			Config: r.Config.Normalize(), Timeline: r.Journal(),
		}
		if err := WriteCheckpoint(cfg.Daemon.CheckpointPath, cp); err != nil {
			r.logger().Error("checkpoint failed", "err", err)
		}
	}

	if r.CrashAfterEpoch > 0 && epoch >= r.CrashAfterEpoch {
		rs.crashed = true
		return sim.ErrStopRun
	}
	if rs.halted {
		return sim.ErrStopRun
	}
	if stop {
		r.logger().Info("graceful stop at epoch boundary", "epoch", epoch, "virtual_ns", now)
		return sim.ErrStopRun
	}
	if !rs.replaying && !r.NoPacing && cfg.Daemon.EpochWallMs > 0 {
		time.Sleep(time.Duration(cfg.Daemon.EpochWallMs) * time.Millisecond)
	}
	return nil
}

// applyEntry applies one reload at an epoch boundary and journals it. A
// live entry that no longer diffs cleanly (cannot happen for preloaded
// journals, which were validated when written) is logged and skipped, so a
// bad reload never half-applies.
func (r *Runner) applyEntry(rs *runState, e TimelineEntry, live bool) {
	r.mu.Lock()
	old := r.cfg
	r.mu.Unlock()
	next := e.Config.Normalize()
	changes, err := DiffReload(old, next)
	if err != nil {
		r.logger().Error("reload rejected at apply", "err", err, "live", live)
		return
	}
	if len(changes) == 0 {
		return
	}
	r.mu.Lock()
	r.cfg = next
	r.journal = append(r.journal, TimelineEntry{ApplyAtNs: e.ApplyAtNs, Epoch: e.Epoch, Config: next})
	r.mu.Unlock()

	if next.SlowdownPct != old.SlowdownPct {
		if err := rs.group.SetTolerableSlowdown(next.SlowdownPct); err != nil {
			r.logger().Error("reload: slowdown retune failed", "err", err)
		}
	}
	if next.PeriodS != old.PeriodS {
		rs.basePeriodNs = rs.sc.PeriodNs
		if next.PeriodS > 0 {
			rs.basePeriodNs = int64(next.PeriodS * 1e9)
		}
	}
	if next.Chaos != old.Chaos {
		rs.m.Injector().SetRates(next.Chaos.Rate, next.Chaos.PermanentFraction)
	}
	rs.ladder.cfg = next.Daemon.Degrade
	// Interval effects (period change, widen-factor change) share one
	// application path; it is idempotent, so reapply unconditionally.
	r.applyInterval(rs)

	r.logger().Info("config reloaded", "epoch", e.Epoch, "virtual_ns", e.ApplyAtNs,
		"changes", strings.Join(changes, "; "), "live", live)
}

// transition applies one ladder move: widen or restore the scan interval,
// shed or restore telemetry, freeze or thaw the engine, and log it. All on
// the simulation goroutine at an epoch boundary.
func (r *Runner) transition(rs *runState, h Health, epoch uint64, now int64) {
	r.mu.Lock()
	from := r.health
	r.health = h
	r.mu.Unlock()
	rs.shed.shed = h >= Degraded
	rs.eng.SetFrozen(h >= QuarantineOnly)
	if h == Halted {
		rs.halted = true
	}
	r.applyInterval(rs)
	r.setPublishedHealth(h)
	r.logger().Warn("health transition",
		"from", from.String(), "to", h.String(), "epoch", epoch, "virtual_ns", now)
}

// applyInterval installs the effective scan interval: the base period,
// widened while the ladder sits below healthy.
func (r *Runner) applyInterval(rs *runState) {
	r.mu.Lock()
	h := r.health
	widen := r.cfg.Daemon.Degrade.WidenFactor
	r.mu.Unlock()
	effective := rs.basePeriodNs
	if h >= Degraded && h < Halted && widen > 1 {
		effective *= widen
	}
	p := rs.group.Params()
	if p.SamplePeriodNs == effective {
		return
	}
	p.SamplePeriodNs = effective
	if err := rs.group.Update(p); err != nil {
		r.logger().Error("scan interval retune failed", "err", err)
	}
}

// writeExports flushes the collector to the configured telemetry sinks.
func (r *Runner) writeExports() error {
	r.mu.Lock()
	t := r.cfg.Telemetry
	r.mu.Unlock()
	if r.col == nil {
		return nil
	}
	if err := r.col.WriteFiles(t.Trace, t.Metrics); err != nil {
		return fmt.Errorf("daemon: write telemetry exports: %w", err)
	}
	if t.Trace != "" {
		r.logger().Info("wrote Chrome trace", "path", t.Trace)
	}
	if t.Metrics != "" {
		r.logger().Info("wrote per-epoch metrics", "path", t.Metrics)
	}
	return nil
}

func (r *Runner) logger() *slog.Logger {
	if r.Logger != nil {
		return r.Logger
	}
	return discardLogger
}

func (r *Runner) setPublishedHealth(h Health) {
	if r.Publisher != nil {
		r.Publisher.SetHealth(h.String())
	}
}

// discardLogger swallows records when no Logger was configured.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 4}))
