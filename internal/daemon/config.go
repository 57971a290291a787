// Package daemon is the write-side robustness shell around the simulator:
// a strict config layer shared with the CLIs, deterministic hot-reload of a
// running simulation (config changes become timestamped events in the
// seeded virtual-time stream), a graceful-degradation ladder wired to the
// chaos engine's quarantine reports, and crash-safe checkpoint/restore.
// cmd/thermostatd is the supervised long-running entry point; see DESIGN.md
// "Daemon lifecycle" for the determinism contract.
package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"thermostat/internal/core"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
	"thermostat/internal/workload"
)

// Config selects everything one run needs: the workload, the tracker ×
// policy composition, scale and schedule, chaos injection, telemetry sinks,
// observability listeners, and the daemon lifecycle knobs. Keys mirror the
// CLI flags (config files use snake_case); the zero value of most fields
// means "use the default" and Normalize fills them in. Config doubles as
// the shared validator for cmd/thermostat-sim and cmd/repro: their flags
// write straight into this struct and Validate holds the one copy of the
// rules.
type Config struct {
	// App is the application model (see thermostat-sim -list).
	App string `json:"app,omitempty"`
	// Apps is cmd/repro's extra model list; thermostatd runs exactly one.
	Apps []string `json:"apps,omitempty"`
	// Policy is "thermostat", "idle-demote", "all-dram", or a placement
	// policy from the core registry composed with Tracker.
	Policy string `json:"policy,omitempty"`
	// Tracker is the access tracker for composition policies.
	Tracker string `json:"tracker,omitempty"`
	// SlowdownPct is the tolerable-slowdown target (the paper's single
	// input). Reloadable.
	SlowdownPct float64 `json:"slowdown_pct,omitempty"`
	// IdleWindowS is the idle-demote policy's window, in seconds.
	IdleWindowS float64 `json:"idle_window_s,omitempty"`
	// Scale names the profile: tiny, bench, or repro.
	Scale string `json:"scale,omitempty"`
	// DurationS overrides the profile's simulated run length, in seconds.
	DurationS float64 `json:"duration_s,omitempty"`
	// PeriodS overrides the profile's scan interval, in (simulated)
	// seconds. Reloadable: a mid-run change takes effect next period.
	PeriodS float64 `json:"period_s,omitempty"`
	// Seed drives all simulation randomness.
	Seed uint64 `json:"seed,omitempty"`
	// Footprint rescales the application model ("64G", "1T", ...).
	Footprint string `json:"footprint,omitempty"`
	// Workers fans independent runs out (CLI baseline+policy pair).
	Workers int `json:"workers,omitempty"`
	// Tiers is an N-tier device hierarchy, fastest first.
	Tiers []string `json:"tiers,omitempty"`
	// Tenants co-locates several models under fleet arbitration
	// (thermostat-sim only; thermostatd rejects it for now).
	Tenants []string `json:"tenants,omitempty"`
	// Chaos configures deterministic fault injection.
	Chaos ChaosConfig `json:"chaos"`
	// Telemetry selects the run's export sinks.
	Telemetry TelemetryConfig `json:"telemetry"`
	// Serve is the observability listener address.
	Serve string `json:"serve,omitempty"`
	// LogFormat is "text" or "json".
	LogFormat string `json:"log_format,omitempty"`
	// Daemon holds the thermostatd lifecycle knobs.
	Daemon Lifecycle `json:"daemon"`
}

// ChaosConfig mirrors the -chaos-* flags. Rate and PermanentFraction are
// reloadable while an injector exists (initial Rate > 0); a zero initial
// rate installs no injector at all, so chaos cannot be enabled by reload.
type ChaosConfig struct {
	Rate              float64 `json:"rate,omitempty"`
	PermanentFraction float64 `json:"permanent_fraction,omitempty"`
	Seed              uint64  `json:"seed,omitempty"`
}

// TelemetryConfig selects export sinks, written when the run ends (or is
// stopped, halted, or flushed by the panic supervisor). All reloadable.
type TelemetryConfig struct {
	// Trace is the Chrome trace_event JSON output path.
	Trace string `json:"trace,omitempty"`
	// Metrics is the per-epoch JSONL output path.
	Metrics string `json:"metrics,omitempty"`
	// Epochs prints the per-epoch table at run end.
	Epochs bool `json:"epochs,omitempty"`
}

// Lifecycle holds the thermostatd-only knobs: checkpointing, wall-clock
// pacing, and the degradation ladder. All reloadable.
type Lifecycle struct {
	// CheckpointPath, when set, enables crash-safe checkpoints: the run's
	// deterministic closure (config, reload timeline, progress, state
	// digest) is written there temp-then-rename at epoch boundaries, and
	// a restart finding the file resumes the run bit-identically.
	CheckpointPath string `json:"checkpoint_path,omitempty"`
	// CheckpointEveryEpochs is the checkpoint cadence (default 8).
	CheckpointEveryEpochs int `json:"checkpoint_every_epochs,omitempty"`
	// EpochWallMs paces the run against the wall clock: each epoch takes
	// at least this many wall milliseconds, so a long-running daemon is
	// observable and reloadable mid-flight. Purely wall-side; virtual
	// results are unchanged. 0 runs flat out.
	EpochWallMs int `json:"epoch_wall_ms,omitempty"`
	// Degrade parameterizes the degradation ladder.
	Degrade DegradeConfig `json:"degrade"`
}

// DegradeConfig parameterizes the graceful-degradation state machine (see
// degrade.go). An epoch is "faulty" when the chaos report grew — injected
// faults, rollbacks or fresh quarantines — and "clean" otherwise.
type DegradeConfig struct {
	// Disabled pins the daemon to healthy regardless of faults.
	Disabled bool `json:"disabled,omitempty"`
	// DegradeAfter consecutive faulty epochs move healthy → degraded
	// (default 2).
	DegradeAfter int `json:"degrade_after,omitempty"`
	// QuarantineAfter further consecutive faulty epochs move degraded →
	// quarantine-only (default 3).
	QuarantineAfter int `json:"quarantine_after,omitempty"`
	// HaltAfter further consecutive faulty epochs move quarantine-only →
	// halted, stopping the run (default 0: never halt).
	HaltAfter int `json:"halt_after,omitempty"`
	// RecoverAfter consecutive clean epochs climb one rung back up
	// (default 4; the asymmetry against DegradeAfter is the hysteresis).
	RecoverAfter int `json:"recover_after,omitempty"`
	// WidenFactor multiplies the scan interval while degraded or worse,
	// shedding daemon work under pressure (default 4).
	WidenFactor int64 `json:"widen_factor,omitempty"`
}

// Normalize returns c with every "use the default" zero field filled in.
// Decode applies it, so a decoded config re-encodes stably.
func (c Config) Normalize() Config {
	if c.Policy == "" {
		c.Policy = "thermostat"
	}
	if c.Scale == "" {
		c.Scale = "repro"
	}
	if c.SlowdownPct == 0 {
		c.SlowdownPct = 3
	}
	if c.IdleWindowS == 0 {
		c.IdleWindowS = 10
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Chaos.Seed == 0 {
		c.Chaos.Seed = 1
	}
	if c.LogFormat == "" {
		c.LogFormat = obsv.LogText
	}
	if c.Daemon.CheckpointEveryEpochs == 0 {
		c.Daemon.CheckpointEveryEpochs = 8
	}
	g := &c.Daemon.Degrade
	if g.DegradeAfter == 0 {
		g.DegradeAfter = 2
	}
	if g.QuarantineAfter == 0 {
		g.QuarantineAfter = 3
	}
	if g.RecoverAfter == 0 {
		g.RecoverAfter = 4
	}
	if g.WidenFactor == 0 {
		g.WidenFactor = 4
	}
	return c
}

// isCompositionPolicy reports whether name is a placement policy from the
// core registry (a tracker × policy composition) rather than a fixed arm.
func isCompositionPolicy(name string) bool {
	return slices.Contains(core.PolicyNames(), name)
}

// MigratesPages reports whether the policy arm moves pages between tiers
// (every arm except the all-DRAM baseline does).
func MigratesPages(policy string) bool { return policy != "all-dram" }

// EnginePolicy reports whether the policy runs through a core.Engine — the
// paper's arm or any tracker × policy composition. Only engine runs carry
// the daemon's quarantine ladder and checkpoint digests.
func EnginePolicy(policy string) bool {
	return policy == "thermostat" || isCompositionPolicy(policy)
}

// Validate rejects inconsistent configurations with a one-line usage error
// per defect. It is the single copy of the rules both CLIs used to
// duplicate: conditions that once surfaced as mid-run fatals (unknown
// presets, -tiers under the wrong policy) fail here instead. Field names in
// the messages follow the CLI flags; config-file keys are the snake_case
// spellings of the same names.
func (c Config) Validate() error {
	if c.App != "" {
		if _, ok := workload.ByName(c.App); !ok {
			return fmt.Errorf("unknown application %q (try -list)", c.App)
		}
	}
	for _, name := range c.Apps {
		if _, ok := workload.ByName(strings.TrimSpace(name)); !ok {
			return fmt.Errorf("unknown application %q", strings.TrimSpace(name))
		}
	}
	switch {
	case c.Policy == "" || c.Policy == "thermostat" || c.Policy == "idle-demote" || c.Policy == "all-dram":
	case isCompositionPolicy(c.Policy):
	default:
		return fmt.Errorf("unknown policy %q (thermostat, idle-demote, all-dram, or a composition policy: %s)",
			c.Policy, strings.Join(core.PolicyNames(), ", "))
	}
	if c.Tracker != "" {
		if !slices.Contains(core.TrackerNames(), c.Tracker) {
			return fmt.Errorf("unknown tracker %q (trackers: %s)",
				c.Tracker, strings.Join(core.TrackerNames(), ", "))
		}
		if !isCompositionPolicy(c.Policy) {
			return fmt.Errorf("-tracker %s needs a composition policy (-policy %s); -policy %s is a fixed arm",
				c.Tracker, strings.Join(core.PolicyNames(), " or "), c.Policy)
		}
	}
	if _, ok := harness.ScaleByName(c.Scale); !ok {
		return fmt.Errorf("unknown scale %q (tiny, bench, or repro)", c.Scale)
	}
	if c.DurationS < 0 {
		return fmt.Errorf("-duration %g is negative", c.DurationS)
	}
	if c.PeriodS < 0 {
		return fmt.Errorf("period_s %g is negative", c.PeriodS)
	}
	if c.Footprint != "" {
		if _, err := workload.ParseSize(c.Footprint); err != nil {
			return fmt.Errorf("-footprint: %v", err)
		}
		if len(c.Tenants) > 0 {
			return fmt.Errorf("-footprint is ambiguous with -tenants; size each tenant's model instead")
		}
	}
	if EnginePolicy(c.Policy) && c.Policy != "" && c.SlowdownPct <= 0 {
		return fmt.Errorf("-slowdown %g must be positive for -policy %s", c.SlowdownPct, c.Policy)
	}
	if c.Policy == "idle-demote" && c.IdleWindowS <= 0 {
		return fmt.Errorf("-idle-window %g must be positive for -policy idle-demote", c.IdleWindowS)
	}
	if c.Chaos.Rate < 0 || c.Chaos.Rate > 1 {
		return fmt.Errorf("-chaos-rate %g outside [0, 1]", c.Chaos.Rate)
	}
	if c.Chaos.PermanentFraction < 0 || c.Chaos.PermanentFraction > 1 {
		return fmt.Errorf("-chaos-permanent %g outside [0, 1]", c.Chaos.PermanentFraction)
	}
	if c.Chaos.Rate > 0 && !MigratesPages(c.Policy) {
		return fmt.Errorf("-chaos-rate needs a migrating policy; all-dram never migrates")
	}
	if !obsv.ValidLogFormat(c.LogFormat) {
		return fmt.Errorf("unknown -log-format %q (text or json)", c.LogFormat)
	}
	if c.Workers < 0 {
		return fmt.Errorf("-workers %d is negative", c.Workers)
	}
	if len(c.Tenants) > 0 {
		// The fleet path builds one two-tier machine per run and gives every
		// tenant the same engine composition, so it composes with chaos (the
		// injector is machine-wide) but not with -tiers or the fixed
		// non-migrating arms.
		if len(c.Tiers) > 0 {
			return fmt.Errorf("-tenants is not supported with -tiers (the fleet pool is the two-tier DRAM budget)")
		}
		if !EnginePolicy(c.Policy) {
			return fmt.Errorf("-tenants needs a migrating per-tenant engine (-policy thermostat, %s)",
				strings.Join(core.PolicyNames(), ", or "))
		}
		for _, name := range c.Tenants {
			name = strings.TrimSpace(name)
			if _, ok := workload.ByName(name); !ok {
				return fmt.Errorf("unknown tenant application %q (try -list)", name)
			}
		}
	}
	if len(c.Tiers) > 0 {
		// A deep hierarchy only makes sense under an engine that migrates
		// between its tiers: the paper's arm or any tracker × policy
		// composition.
		if !EnginePolicy(c.Policy) {
			return fmt.Errorf("-tiers needs a migrating engine (-policy thermostat, %s)",
				strings.Join(core.PolicyNames(), ", or "))
		}
		if c.Chaos.Rate > 0 {
			return fmt.Errorf("-chaos-rate is not supported with -tiers")
		}
		if len(c.Tiers) < 2 {
			return fmt.Errorf("-tiers needs at least two tiers, got %d", len(c.Tiers))
		}
		if _, err := harness.ResolveTiers(c.Tiers); err != nil {
			return err
		}
	}
	d := c.Daemon
	if d.CheckpointEveryEpochs < 0 {
		return fmt.Errorf("daemon.checkpoint_every_epochs %d is negative", d.CheckpointEveryEpochs)
	}
	if d.EpochWallMs < 0 {
		return fmt.Errorf("daemon.epoch_wall_ms %d is negative", d.EpochWallMs)
	}
	g := d.Degrade
	if g.DegradeAfter < 0 || g.QuarantineAfter < 0 || g.HaltAfter < 0 || g.RecoverAfter < 0 {
		return fmt.Errorf("daemon.degrade thresholds must be non-negative (degrade_after %d, quarantine_after %d, halt_after %d, recover_after %d)",
			g.DegradeAfter, g.QuarantineAfter, g.HaltAfter, g.RecoverAfter)
	}
	if g.WidenFactor < 0 {
		return fmt.Errorf("daemon.degrade.widen_factor %d is negative", g.WidenFactor)
	}
	return nil
}

// ValidateForDaemon layers thermostatd's own requirements on Validate: the
// daemon runs exactly one app under an engine policy (the degradation
// ladder and checkpoint digests drive the engine), and the fleet and
// multi-app paths stay CLI-only for now.
func (c Config) ValidateForDaemon() error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.App == "" {
		return fmt.Errorf("daemon: config needs an app (see thermostat-sim -list)")
	}
	if len(c.Apps) > 0 {
		return fmt.Errorf("daemon: apps is a repro knob; thermostatd runs exactly one app")
	}
	if len(c.Tenants) > 0 {
		return fmt.Errorf("daemon: thermostatd does not run tenant fleets yet; use thermostat-sim -tenants")
	}
	if !EnginePolicy(c.Policy) {
		return fmt.Errorf("daemon: policy %q has no engine; thermostatd needs thermostat or a tracker × policy composition (%s)",
			c.Policy, strings.Join(core.PolicyNames(), ", "))
	}
	return nil
}

// Decode parses a config document — strict JSON (first byte '{') or the
// documented YAML subset — applies defaults, and returns it. Unknown keys,
// duplicate keys, type mismatches and trailing garbage are all errors;
// rejects are deterministic, so the same bytes always produce the same
// outcome (FuzzDaemonConfig pins this).
func Decode(data []byte) (Config, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var c Config
	if len(trimmed) > 0 && trimmed[0] == '{' {
		if err := strictUnmarshal(trimmed, &c); err != nil {
			return Config{}, fmt.Errorf("daemon: parse json config: %w", err)
		}
		return c.Normalize(), nil
	}
	v, err := parseYAML(data)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: parse yaml config: %w", err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return Config{}, fmt.Errorf("daemon: parse yaml config: top level must be a mapping")
	}
	b, err := json.Marshal(m)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: parse yaml config: %v", err)
	}
	if err := strictUnmarshal(b, &c); err != nil {
		return Config{}, fmt.Errorf("daemon: parse yaml config: %w", err)
	}
	return c.Normalize(), nil
}

// strictUnmarshal decodes JSON into v rejecting unknown fields and
// trailing non-whitespace.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after config document")
	}
	return nil
}

// LoadFile reads and decodes the config file at path.
func LoadFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: read config: %w", err)
	}
	c, err := Decode(data)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: %s: %w", path, err)
	}
	return c, nil
}

// Encode renders c as indented JSON (the normalized form checkpoints and
// -check print). Decode(Encode(c)) round-trips exactly.
func (c Config) Encode() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		// Config has no unmarshalable field types; this cannot happen.
		panic(err)
	}
	return append(b, '\n')
}

// DiffReload splits a proposed new config against the running one into the
// permitted live changes and returns them as human-readable "key: old →
// new" lines. A change to any structural field — anything that would alter
// the seeded simulation already in flight (app, policy, scale, seed,
// footprint, tiers, listeners, ...) — rejects the whole reload with an
// error, so a bad edit never half-applies. An empty slice with a nil error
// means the reload is a no-op.
func DiffReload(old, new Config) ([]string, error) {
	type structural struct {
		name     string
		old, new any
	}
	fixed := []structural{
		{"app", old.App, new.App},
		{"apps", strings.Join(old.Apps, ","), strings.Join(new.Apps, ",")},
		{"policy", old.Policy, new.Policy},
		{"tracker", old.Tracker, new.Tracker},
		{"idle_window_s", old.IdleWindowS, new.IdleWindowS},
		{"scale", old.Scale, new.Scale},
		{"duration_s", old.DurationS, new.DurationS},
		{"seed", old.Seed, new.Seed},
		{"footprint", old.Footprint, new.Footprint},
		{"workers", old.Workers, new.Workers},
		{"tiers", strings.Join(old.Tiers, ","), strings.Join(new.Tiers, ",")},
		{"tenants", strings.Join(old.Tenants, ","), strings.Join(new.Tenants, ",")},
		{"chaos.seed", old.Chaos.Seed, new.Chaos.Seed},
		{"serve", old.Serve, new.Serve},
		{"log_format", old.LogFormat, new.LogFormat},
	}
	for _, f := range fixed {
		if f.old != f.new {
			return nil, fmt.Errorf("daemon: %s is not reloadable (%v → %v); restart to change it", f.name, f.old, f.new)
		}
	}
	if old.Chaos.Rate == 0 && new.Chaos.Rate > 0 {
		return nil, fmt.Errorf("daemon: chaos cannot be enabled by reload; a zero-rate start installs no injector")
	}
	var changes []string
	add := func(key string, o, n any) {
		if o != n {
			changes = append(changes, fmt.Sprintf("%s: %v → %v", key, o, n))
		}
	}
	add("slowdown_pct", old.SlowdownPct, new.SlowdownPct)
	add("period_s", old.PeriodS, new.PeriodS)
	add("chaos.rate", old.Chaos.Rate, new.Chaos.Rate)
	add("chaos.permanent_fraction", old.Chaos.PermanentFraction, new.Chaos.PermanentFraction)
	add("telemetry.trace", old.Telemetry.Trace, new.Telemetry.Trace)
	add("telemetry.metrics", old.Telemetry.Metrics, new.Telemetry.Metrics)
	add("telemetry.epochs", old.Telemetry.Epochs, new.Telemetry.Epochs)
	add("daemon.checkpoint_path", old.Daemon.CheckpointPath, new.Daemon.CheckpointPath)
	add("daemon.checkpoint_every_epochs", old.Daemon.CheckpointEveryEpochs, new.Daemon.CheckpointEveryEpochs)
	add("daemon.epoch_wall_ms", old.Daemon.EpochWallMs, new.Daemon.EpochWallMs)
	if old.Daemon.Degrade != new.Daemon.Degrade {
		changes = append(changes, "daemon.degrade: thresholds retuned")
	}
	return changes, nil
}
