package daemon

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"thermostat/internal/harness"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
)

// tinyConfig is the base test config: redis under the paper's arm at the
// tiny profile, short enough for unit tests, with both exports on.
func tinyConfig(t *testing.T, dir string) Config {
	t.Helper()
	return Config{
		App: "redis", Policy: "thermostat", Scale: "tiny",
		SlowdownPct: 3, Seed: 1, DurationS: 4,
		Telemetry: TelemetryConfig{
			Trace:   filepath.Join(dir, "trace.json"),
			Metrics: filepath.Join(dir, "metrics.jsonl"),
		},
	}.normalize()
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", path)
	}
	return data
}

func TestRunDeterministic(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	ra := &Runner{Config: tinyConfig(t, dirA), NoPacing: true}
	outA, err := ra.Run()
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	rb := &Runner{Config: tinyConfig(t, dirB), NoPacing: true}
	outB, err := rb.Run()
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if outA.Epochs == 0 || outA.Epochs != outB.Epochs {
		t.Fatalf("epochs: %d vs %d", outA.Epochs, outB.Epochs)
	}
	for _, name := range []string{"trace.json", "metrics.jsonl"} {
		a := readFileT(t, filepath.Join(dirA, name))
		b := readFileT(t, filepath.Join(dirB, name))
		if string(a) != string(b) {
			t.Errorf("%s differs between identical runs", name)
		}
	}
	if outA.Health != healthy {
		t.Errorf("clean run ended %v, want healthy", outA.Health)
	}
}

// TestReloadVsColdStart is the reload-as-event determinism contract: a live
// mid-run reload, journaled with its virtual apply time, must be
// byte-identical to a cold start fed that journal as a preloaded timeline.
func TestReloadVsColdStart(t *testing.T) {
	live := reloadVsColdStart(t, func(c *Config) {}, func(c *Config) { c.SlowdownPct = 8 })
	if live.Config.SlowdownPct != 8 {
		t.Fatalf("reload not applied: %+v", live.Config)
	}
}

// TestReloadPeriodVsColdStart reloads period_s from 0.5 back to 0 (the
// profile's interval): the engine must end on tiny's own scan interval, not
// the starting override, and a cold start fed the journal must replay the
// run byte for byte.
func TestReloadPeriodVsColdStart(t *testing.T) {
	tiny, _ := harness.ScaleByName("tiny")
	live := reloadVsColdStart(t, func(c *Config) { c.PeriodS = 0.5 }, func(c *Config) { c.PeriodS = 0 })
	if got := live.Engine.Group().Params().SamplePeriodNs; got != tiny.PeriodNs {
		t.Fatalf("after reloading period_s 0.5 → 0 the scan interval is %d ns, want the profile's %d", got, tiny.PeriodNs)
	}
}

// reloadVsColdStart runs tinyConfig with base applied, reloads it live with
// reload applied on top, then cold-starts the same base fed the live run's
// journal, and fails unless both runs export the same bytes and counters.
// It returns the live run's outcome.
func reloadVsColdStart(t *testing.T, base, reload func(*Config)) *RunOutcome {
	t.Helper()
	liveDir, coldDir := t.TempDir(), t.TempDir()

	// Live run: wall-paced so the reload posted from this goroutine lands
	// mid-run at some epoch boundary (which one doesn't matter — the
	// journal records it).
	liveCfg := tinyConfig(t, liveDir)
	base(&liveCfg)
	liveCfg.Daemon.EpochWallMs = 5
	live := &Runner{Config: liveCfg}
	reloaded := liveCfg
	reload(&reloaded)
	errc := make(chan error, 1)
	var out *RunOutcome
	go func() {
		var err error
		out, err = live.Run()
		errc <- err
	}()
	time.Sleep(25 * time.Millisecond)
	if _, err := live.Reload(reloaded); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("live run: %v", err)
	}
	if len(out.Timeline) != 1 {
		t.Fatalf("reload did not land mid-run (timeline %d entries, %d epochs)", len(out.Timeline), out.Epochs)
	}

	// Cold start: same base config, the live run's journal preloaded, with
	// the telemetry paths redirected (paths are not part of the stream).
	coldCfg := tinyConfig(t, coldDir)
	base(&coldCfg)
	coldCfg.Daemon.EpochWallMs = 5
	timeline := make([]timelineEntry, len(out.Timeline))
	copy(timeline, out.Timeline)
	timeline[0].Config.Telemetry = coldCfg.Telemetry
	cold := &Runner{Config: coldCfg, Timeline: timeline, NoPacing: true}
	outCold, err := cold.Run()
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if len(outCold.Timeline) != 1 || outCold.Timeline[0].ApplyAtNs != out.Timeline[0].ApplyAtNs {
		t.Fatalf("cold run applied %+v, want %+v", outCold.Timeline, out.Timeline)
	}
	for _, name := range []string{"trace.json", "metrics.jsonl"} {
		a := readFileT(t, filepath.Join(liveDir, name))
		b := readFileT(t, filepath.Join(coldDir, name))
		if string(a) != string(b) {
			t.Errorf("%s: live reload differs from cold start with the same timeline", name)
		}
	}
	if outCold.Result.Ops != out.Result.Ops ||
		outCold.Result.Metrics.SlowAccesses != out.Result.Metrics.SlowAccesses ||
		outCold.Result.Metrics.MigrationBytes != out.Result.Metrics.MigrationBytes {
		t.Errorf("counters diverged: live %+v cold %+v", out.Result.Metrics, outCold.Result.Metrics)
	}
	return out
}

// TestCheckpointRestoreBitIdentity kills a run at an epoch boundary
// (simulated kill -9: checkpoint survives, exports don't), restores from
// the checkpoint, and requires the restored run's final exports to equal an
// uninterrupted reference run's byte-for-byte.
func TestCheckpointRestoreBitIdentity(t *testing.T) {
	refDir, crashDir := t.TempDir(), t.TempDir()

	refCfg := tinyConfig(t, refDir)
	ref := &Runner{Config: refCfg, NoPacing: true}
	if _, err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	crashCfg := tinyConfig(t, crashDir)
	crashCfg.Daemon.CheckpointPath = filepath.Join(crashDir, "daemon.ckpt")
	crashCfg.Daemon.CheckpointEveryEpochs = 3
	crash := &Runner{Config: crashCfg, NoPacing: true, CrashAfterEpoch: 7}
	_, err := crash.Run()
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crash run: %v, want ErrSimulatedCrash", err)
	}
	if _, err := os.Stat(crashCfg.Telemetry.Trace); !os.IsNotExist(err) {
		t.Fatalf("crash must not flush exports (stat: %v)", err)
	}

	cp, err := ReadCheckpoint(crashCfg.Daemon.CheckpointPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	if cp == nil || cp.SavedAtEpoch != 6 {
		t.Fatalf("checkpoint %+v, want saved_at_epoch 6", cp)
	}

	restore := &Runner{Config: cp.Config, Timeline: cp.Timeline, Restore: cp, NoPacing: true}
	outR, err := restore.Run()
	if err != nil {
		t.Fatalf("restored run: %v", err)
	}
	if outR.Health != healthy {
		t.Fatalf("restored run ended %v", outR.Health)
	}
	for _, name := range []string{"trace.json", "metrics.jsonl"} {
		a := readFileT(t, filepath.Join(refDir, name))
		b := readFileT(t, filepath.Join(crashDir, name))
		if string(a) != string(b) {
			t.Errorf("%s: restored run differs from uninterrupted reference", name)
		}
	}
	if _, err := os.Stat(crashCfg.Daemon.CheckpointPath); !os.IsNotExist(err) {
		t.Errorf("completed restore should remove the checkpoint (stat: %v)", err)
	}
}

// TestRestoreDigestMismatch proves the restore path verifies state: a
// checkpoint whose digest cannot be reproduced is rejected, not silently
// resumed.
func TestRestoreDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, dir)
	cfg.Daemon.CheckpointPath = filepath.Join(dir, "daemon.ckpt")
	cfg.Daemon.CheckpointEveryEpochs = 3
	crash := &Runner{Config: cfg, NoPacing: true, CrashAfterEpoch: 7}
	if _, err := crash.Run(); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("crash run: %v", err)
	}
	cp, err := ReadCheckpoint(cfg.Daemon.CheckpointPath)
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}
	cp.Digest = "deadbeefdeadbeef"
	restore := &Runner{Config: cp.Config, Timeline: cp.Timeline, Restore: cp, NoPacing: true}
	if _, err := restore.Run(); err == nil {
		t.Fatal("restore with a corrupt digest must fail")
	}
}

// TestTornCheckpointIsNamedError: a checkpoint cut short anywhere inside its
// JSON object — a torn write, a truncated copy — is refused by ReadCheckpoint
// with an error that names the file, never returned as a checkpoint and
// never a panic (thermostatd exits 2 on it, as on a bad config).
func TestTornCheckpointIsNamedError(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, dir)
	cp := &Checkpoint{Version: checkpointVersion, SavedAtEpoch: 6, VirtualNs: 2.4e9, Digest: "00c0ffee00c0ffee",
		Config: cfg, Timeline: []timelineEntry{{ApplyAtNs: 8e8, Epoch: 2, Config: cfg}}}
	whole := filepath.Join(dir, "whole.ckpt")
	if err := WriteCheckpoint(whole, cp); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCheckpoint(whole); err != nil || got == nil {
		t.Fatalf("intact checkpoint: %v, %v", got, err)
	}
	data := readFileT(t, whole)
	torn := filepath.Join(dir, "torn.ckpt")
	for n := 0; n <= bytes.LastIndexByte(data, '}'); n++ {
		if err := os.WriteFile(torn, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadCheckpoint(torn)
		if got != nil || err == nil || !strings.Contains(err.Error(), torn) {
			t.Fatalf("checkpoint cut to %d of %d bytes: got %v, err %v; want no checkpoint and an error naming %s",
				n, len(data), got, err, torn)
		}
	}
}

// TestTornConfigIsNamedError: a config file cut short never panics. Every
// cut of the JSON example before its final brace is refused by LoadFile
// with an error naming the file; a cut of the YAML example is refused the
// same way or is itself a shorter YAML document, on which ValidateForDaemon
// must return rather than panic (thermostatd exits 2 on either error).
func TestTornConfigIsNamedError(t *testing.T) {
	torn := filepath.Join(t.TempDir(), "torn.conf")
	load := func(data []byte) (Config, error) {
		t.Helper()
		if err := os.WriteFile(torn, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return LoadFile(torn)
	}
	js := readFileT(t, filepath.Join("..", "..", "examples", "configs", "batch.json"))
	for n := 0; n <= bytes.LastIndexByte(js, '}'); n++ {
		c, err := load(js[:n])
		if n == 0 && err == nil {
			// Zero bytes are not JSON but the YAML subset's empty document:
			// the defaults, which name no app, so the daemon refuses them.
			if c.ValidateForDaemon() == nil {
				t.Fatal("an empty config file passed ValidateForDaemon")
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), torn) {
			t.Fatalf("batch.json cut to %d of %d bytes: err %v; want an error naming %s", n, len(js), err, torn)
		}
	}
	ym := readFileT(t, filepath.Join("..", "..", "examples", "configs", "daemon.yaml"))
	for n := 0; n < len(ym); n++ {
		c, err := load(ym[:n])
		if err == nil {
			_ = c.ValidateForDaemon() // an error is a refusal; only a panic fails
			continue
		}
		if !strings.Contains(err.Error(), torn) {
			t.Fatalf("daemon.yaml cut to %d of %d bytes: err %v; want it to name %s", n, len(ym), err, torn)
		}
	}
}

// TestQuarantineOnlyUnderChaos drives sustained permanent-fault chaos and
// requires the ladder to reach quarantine-only without the run crashing:
// bounded backpressure, not a fatal.
func TestQuarantineOnlyUnderChaos(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, dir)
	cfg.Chaos = chaosConfig{Rate: 1, PermanentFraction: 1, Seed: 1}
	cfg.Daemon.Degrade = degradeConfig{
		DegradeAfter: 1, QuarantineAfter: 1, RecoverAfter: 1000, WidenFactor: 1,
	}
	r := &Runner{Config: cfg, NoPacing: true}
	out, err := r.Run()
	if err != nil {
		t.Fatalf("chaos run must not crash: %v", err)
	}
	if out.Health != quarantineOnly {
		t.Fatalf("health %v, want quarantine-only (epochs %d, faults %+v)",
			out.Health, out.Epochs, out.Engine.FaultReport())
	}
	if !out.Engine.Frozen() {
		t.Error("quarantine-only must freeze the engine")
	}
}

// TestHaltLadder runs the same storm with a halt threshold and requires a
// deliberate ErrHalted exit with flushed exports.
func TestHaltLadder(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, dir)
	cfg.Chaos = chaosConfig{Rate: 1, PermanentFraction: 1, Seed: 1}
	cfg.Daemon.Degrade = degradeConfig{
		DegradeAfter: 1, QuarantineAfter: 1, HaltAfter: 1, RecoverAfter: 1000, WidenFactor: 1,
	}
	r := &Runner{Config: cfg, NoPacing: true}
	out, err := r.Run()
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err %v, want ErrHalted", err)
	}
	if out == nil || out.Health != halted {
		t.Fatalf("outcome %+v, want halted", out)
	}
	readFileT(t, cfg.Telemetry.Trace) // halt still flushes telemetry
}

// TestGracefulStop stops a paced run mid-flight and expects a clean partial
// result with exports.
func TestGracefulStop(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig(t, dir)
	cfg.Daemon.EpochWallMs = 5
	r := &Runner{Config: cfg}
	errc := make(chan error, 1)
	var out *RunOutcome
	go func() {
		var err error
		out, err = r.Run()
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	if err := <-errc; err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if out.Epochs == 0 {
		t.Fatal("stop before any epoch completed")
	}
	readFileT(t, cfg.Telemetry.Trace)
}

// TestLadderUnit walks the state machine directly.
func TestLadderUnit(t *testing.T) {
	l := &ladder{cfg: degradeConfig{DegradeAfter: 2, QuarantineAfter: 2, HaltAfter: 2, RecoverAfter: 3, WidenFactor: 4}}
	seq := []struct {
		faulty bool
		want   health
	}{
		{true, healthy}, {true, degraded}, // 2 faulty → degraded
		{true, degraded}, {true, quarantineOnly}, // 2 more → quarantine-only
		{false, quarantineOnly}, {false, quarantineOnly}, {false, degraded}, // 3 clean → climb
		{false, degraded}, {true, degraded}, // streak broken by fault
		{false, degraded}, {false, degraded}, {false, healthy}, // fresh 3 clean → healthy
	}
	for i, s := range seq {
		h, _ := l.observe(s.faulty)
		if h != s.want {
			t.Fatalf("step %d (faulty=%v): health %v, want %v", i, s.faulty, h, s.want)
		}
	}
	// Halt path and terminality.
	l2 := &ladder{cfg: degradeConfig{DegradeAfter: 1, QuarantineAfter: 1, HaltAfter: 1, RecoverAfter: 2}}
	for i := 0; i < 3; i++ {
		l2.observe(true)
	}
	if h, _ := l2.observe(false); h != halted {
		t.Fatalf("halted must be terminal, got %v", h)
	}
	// Disabled ladder never moves.
	l3 := &ladder{cfg: degradeConfig{Disabled: true, DegradeAfter: 1}}
	if h, changed := l3.observe(true); h != healthy || changed {
		t.Fatalf("disabled ladder moved: %v", h)
	}
}

// TestRunnerMatchesHarnessRun pins the one-assembly contract from the
// daemon's side: a Runner run of a config and harness.Run of the plan
// Config.Resolve gives it — on the two-tier machine and on a named three-tier
// hierarchy with a composed engine — finish in the same state (equal
// RunResult, equal state digest, byte-equal telemetry exports).
func TestRunnerMatchesHarnessRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"thermostat-two-tier", func(*Config) {}},
		{"composed-three-tier", func(c *Config) {
			c.Policy, c.Tracker = "heat", "idlebit"
			c.Tiers = []string{"dram", "cxl", "nvm"}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(t, t.TempDir())
			tc.mutate(&cfg)
			got, err := (&Runner{Config: cfg, NoPacing: true}).Run()
			if err != nil {
				t.Fatal(err)
			}

			spec, sc, plan, err := cfg.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			col := telemetry.NewCollector()
			withChaos := plan.Config
			plan.Config = func(c *sim.Config) {
				withChaos(c)
				c.Recorder = col
			}
			want, err := harness.Run(spec, sc, plan)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(got.Result, want.Result) {
				t.Errorf("RunResult differs: daemon ops %d clock %d, harness ops %d clock %d",
					got.Result.Ops, got.Result.Metrics.ClockNs, want.Result.Ops, want.Result.Metrics.ClockNs)
			}
			clock := got.Result.Metrics.ClockNs
			gd := stateDigest(got.Epochs, clock, got.Machine, got.Engine, got.Collector.EventCount())
			wd := stateDigest(got.Epochs, clock, want.Machine, want.Engine, col.EventCount())
			if gd != wd {
				t.Errorf("state digest: daemon %s, harness %s", gd, wd)
			}
			var trace, metrics bytes.Buffer
			if err := col.WriteChromeTrace(&trace); err != nil {
				t.Fatal(err)
			}
			if err := col.WriteJSONL(&metrics); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(trace.Bytes(), readFileT(t, cfg.Telemetry.Trace)) {
				t.Error("Chrome trace differs between the daemon run and harness.Run")
			}
			if !bytes.Equal(metrics.Bytes(), readFileT(t, cfg.Telemetry.Metrics)) {
				t.Error("metrics JSONL differs between the daemon run and harness.Run")
			}
		})
	}
}
