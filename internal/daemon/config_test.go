package daemon

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"thermostat/internal/chaos"
	"thermostat/internal/core"
	"thermostat/internal/harness"
	"thermostat/internal/mem"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

const sampleYAML = `
# thermostatd sample: redis under the paper's arm with chaos.
app: redis
policy: thermostat
scale: tiny
slowdown_pct: 3
seed: 42
log_format: json
serve: 127.0.0.1:9090

chaos:
  rate: 0.2
  permanent_fraction: 0.5
  seed: 7

telemetry:
  trace: out/trace.json
  metrics: out/metrics.jsonl
  epochs: true

tiers: []

daemon:
  checkpoint_path: out/thermostatd.ckpt
  checkpoint_every_epochs: 4
  epoch_wall_ms: 10
  degrade:
    degrade_after: 2
    quarantine_after: 3
    recover_after: 4
    widen_factor: 4
`

func TestDecodeYAML(t *testing.T) {
	c, err := Decode([]byte(sampleYAML))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c.App != "redis" || c.Policy != "thermostat" || c.Scale != "tiny" {
		t.Fatalf("wrong identity fields: %+v", c)
	}
	if c.Seed != 42 || c.Chaos.Seed != 7 || c.Chaos.Rate != 0.2 {
		t.Fatalf("wrong seeds/chaos: %+v", c)
	}
	if c.Serve != "127.0.0.1:9090" {
		t.Fatalf("colon-bearing scalar mangled: %q", c.Serve)
	}
	if !c.Telemetry.Epochs || c.Telemetry.Trace != "out/trace.json" {
		t.Fatalf("wrong telemetry: %+v", c.Telemetry)
	}
	if c.Daemon.CheckpointEveryEpochs != 4 || c.Daemon.EpochWallMs != 10 {
		t.Fatalf("wrong lifecycle: %+v", c.Daemon)
	}
	if err := c.ValidateForDaemon(); err != nil {
		t.Fatalf("ValidateForDaemon: %v", err)
	}
}

func TestDecodeJSON(t *testing.T) {
	c, err := Decode([]byte(`{"app": "redis", "scale": "tiny", "chaos": {}, "telemetry": {}, "daemon": {"degrade": {}}}`))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c.App != "redis" || c.Policy != "thermostat" {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

func TestDecodeDefaults(t *testing.T) {
	c, err := Decode([]byte("app: memcached\n"))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if c.Policy != "thermostat" || c.Scale != "repro" || c.SlowdownPct != 3 ||
		c.Seed != 1 || c.Chaos.Seed != 1 || c.LogFormat != "text" {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Daemon.Degrade.DegradeAfter != 2 || c.Daemon.Degrade.WidenFactor != 4 {
		t.Fatalf("degrade defaults: %+v", c.Daemon.Degrade)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := []struct{ name, in, want string }{
		{"unknown key", "app: redis\nbogus: 1\n", "unknown field"},
		{"unknown nested key", "chaos:\n  frequency: 1\n", "unknown field"},
		{"removed key", "app: redis\nshard_workers: 8\n", `unknown field "shard_workers"`},
		{"removed key json", `{"app": "redis", "shard_workers": 8}`, `unknown field "shard_workers"`},
		{"removed sparse", "app: redis\nsparse: true\n", `unknown field "sparse"`},
		{"removed sparse json", `{"app": "redis", "sparse": true}`, `unknown field "sparse"`},
		{"removed pprof", "app: redis\npprof: localhost:6060\n", `unknown field "pprof"`},
		{"removed pprof json", `{"app": "redis", "pprof": "localhost:6060"}`, `unknown field "pprof"`},
		{"duplicate key", "app: redis\napp: memcached\n", "duplicate key"},
		{"type mismatch", "app: 3\n", "cannot unmarshal"},
		{"tab indent", "daemon:\n\tepoch_wall_ms: 1\n", "tab in indentation"},
		{"flow mapping", "chaos: {rate: 1}\n", "not supported"},
		{"multi-doc", "---\napp: redis\n", "not supported"},
		{"bad json", `{"app": `, "parse json"},
		{"json trailing", `{"app": "redis"} {}`, "trailing data"},
		{"top-level list", "- a\n- b\n", "top level must be a mapping"},
		{"negative seed", "seed: -1\n", "cannot unmarshal"},
	}
	for _, tc := range cases {
		if _, err := Decode([]byte(tc.in)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c, err := Decode([]byte(sampleYAML))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	enc := c.Encode()
	c2, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode(Encode): %v", err)
	}
	if !bytes.Equal(enc, c2.Encode()) {
		t.Fatalf("round trip unstable:\n%s\nvs\n%s", enc, c2.Encode())
	}
}

func TestValidateRules(t *testing.T) {
	base := func() Config {
		return Config{App: "redis", Policy: "thermostat", Scale: "tiny", SlowdownPct: 3, IdleWindowS: 10}.Normalize()
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"unknown app", func(c *Config) { c.App = "nope" }, "unknown application"},
		{"unknown policy", func(c *Config) { c.Policy = "nope" }, "unknown policy"},
		{"unknown scale", func(c *Config) { c.Scale = "huge" }, "unknown scale"},
		{"negative duration", func(c *Config) { c.DurationS = -1 }, "negative"},
		{"negative period", func(c *Config) { c.PeriodS = -1 }, "negative"},
		{"bad slowdown", func(c *Config) { c.SlowdownPct = -1 }, "-slowdown"},
		{"chaos range", func(c *Config) { c.Chaos.Rate = 1.5 }, "outside [0, 1]"},
		{"chaos non-migrating", func(c *Config) { c.Policy = "all-dram"; c.Chaos.Rate = 0.1 }, "migrating policy"},
		{"tracker without composition", func(c *Config) { c.Tracker = "damon" }, "composition policy"},
		{"unknown tracker", func(c *Config) { c.Tracker = "nope" }, "unknown tracker"},
		{"tiers non-engine", func(c *Config) { c.Policy = "idle-demote"; c.Tiers = []string{"dram", "nvm"} }, "migrating engine"},
		{"tiers bad preset", func(c *Config) { c.Tiers = []string{"dram", "floppy"} }, "unknown device preset"},
		{"tenants with tiers", func(c *Config) { c.Tenants = []string{"redis"}; c.Tiers = []string{"dram", "nvm"} }, "not supported with -tiers"},
		{"single tier", func(c *Config) { c.Tiers = []string{"dram"} }, "at least two tiers"},
		{"negative workers", func(c *Config) { c.Workers = -1 }, "-workers"},
		{"bad log format", func(c *Config) { c.LogFormat = "xml" }, "-log-format"},
		{"negative ckpt cadence", func(c *Config) { c.Daemon.CheckpointEveryEpochs = -1 }, "checkpoint_every_epochs"},
		{"negative degrade", func(c *Config) { c.Daemon.Degrade.DegradeAfter = -1 }, "non-negative"},
	}
	for _, tc := range cases {
		c := base()
		tc.mut(&c)
		err := c.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want substring %q", tc.name, err, tc.want)
		}
		if err != nil && strings.Contains(err.Error(), "\n") {
			t.Errorf("%s: multi-line error %q", tc.name, err)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("base config invalid: %v", err)
	}
}

func TestValidateForDaemon(t *testing.T) {
	c := Config{Policy: "thermostat", Scale: "tiny", SlowdownPct: 3}.Normalize()
	if err := c.ValidateForDaemon(); err == nil || !strings.Contains(err.Error(), "needs an app") {
		t.Fatalf("missing app: %v", err)
	}
	c.App = "redis"
	c.Policy = "all-dram"
	if err := c.ValidateForDaemon(); err == nil || !strings.Contains(err.Error(), "no engine") {
		t.Fatalf("non-engine policy: %v", err)
	}
	c.Policy = "threshold"
	c.Tracker = "idlebit"
	if err := c.ValidateForDaemon(); err != nil {
		t.Fatalf("composition should be daemon-runnable: %v", err)
	}
}

func TestDiffReload(t *testing.T) {
	old, err := Decode([]byte(sampleYAML))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	now := old
	now.SlowdownPct = 5
	now.Chaos.Rate = 0.4
	changes, err := DiffReload(old, now)
	if err != nil {
		t.Fatalf("DiffReload: %v", err)
	}
	if len(changes) != 2 {
		t.Fatalf("want 2 changes, got %v", changes)
	}

	if changes, err := DiffReload(old, old); err != nil || len(changes) != 0 {
		t.Fatalf("no-op reload: %v %v", changes, err)
	}

	bad := old
	bad.Seed = 99
	if _, err := DiffReload(old, bad); err == nil || !strings.Contains(err.Error(), "not reloadable") {
		t.Fatalf("structural change should reject: %v", err)
	}

	quiet := old
	quiet.Chaos.Rate = 0
	enabled := old
	if _, err := DiffReload(quiet, enabled); err == nil || !strings.Contains(err.Error(), "cannot be enabled") {
		t.Fatalf("chaos enable should reject: %v", err)
	}
	if _, err := DiffReload(enabled, quiet); err != nil {
		t.Fatalf("chaos disable should be allowed: %v", err)
	}
}

// TestResolve pins the one Config → run resolution the CLIs, the daemon and
// repro share: profile, seed, a shortened duration with its warm-up kept
// inside, the period override, footprint, tiers, chaos and every policy arm.
func TestResolve(t *testing.T) {
	c := Config{App: "redis", Policy: "thermostat", Scale: "tiny", SlowdownPct: 3, IdleWindowS: 10,
		Seed: 7, DurationS: 1, PeriodS: 0.5, Footprint: "64G", Tiers: []string{"dram", " cxl"},
		Chaos: ChaosConfig{Rate: 0.1, Seed: 3}}
	spec, sc, plan, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := workload.Redis().WithFootprint(64 << 30); !reflect.DeepEqual(spec, want) {
		t.Errorf("spec not rescaled to the footprint")
	}
	want := harness.Tiny()
	want.Seed, want.DurationNs, want.WarmupNs, want.PeriodNs = 7, 1e9, 2e8, 5e8
	if sc != want {
		t.Errorf("scale = %+v, want %+v", sc, want)
	}
	cxl, _ := mem.Preset("cxl", 0)
	if plan.SlowdownPct != 3 || plan.Placement != "thermostat" || len(plan.Tiers) != 2 || plan.Tiers[1] != cxl {
		t.Errorf("thermostat plan = %+v", plan)
	}
	var cfg sim.Config
	plan.Config(&cfg)
	if !reflect.DeepEqual(cfg.Chaos, chaos.Config{Seed: 3, Rate: 0.1}) {
		t.Errorf("chaos = %+v", cfg.Chaos)
	}

	c.Tiers, c.Footprint = nil, ""
	for policy, check := range map[string]func(harness.Plan) bool{
		"idle-demote": func(p harness.Plan) bool {
			d, ok := p.Policy.(*core.IdleDemote)
			return ok && d.Interval == 10e9*8/4 && d.IdleScans == 4 && p.SlowdownPct == 0
		},
		"all-dram": func(p harness.Plan) bool { return p.Policy == nil && p.SlowdownPct == 0 && p.Placement == "" },
		"heat":     func(p harness.Plan) bool { return p.Placement == "heat" && p.Tracker == "damon" && p.SlowdownPct == 3 },
	} {
		c.Policy, c.Tracker = policy, ""
		if policy == "heat" {
			c.Tracker = "damon"
		}
		if _, _, p, err := c.Resolve(); err != nil || !check(p) {
			t.Errorf("%s: plan %+v, err %v", policy, p, err)
		}
	}

	if spec, _, _, err := (Config{Scale: "tiny"}).Resolve(); err != nil || spec.Name != "" {
		t.Errorf("an empty app resolves to %q, %v; want the zero spec", spec.Name, err)
	}
	for _, bad := range []Config{{Scale: "huge"}, {Scale: "tiny", App: "nope"}, {Scale: "tiny", Tiers: []string{"dram", "tape"}}} {
		if _, _, _, err := bad.Resolve(); err == nil {
			t.Errorf("%+v resolved", bad)
		}
	}
}
