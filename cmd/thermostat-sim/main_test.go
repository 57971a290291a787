package main

import (
	"strings"
	"testing"

	"thermostat/internal/daemon"
)

// valid returns a config that passes validation; each case mutates one
// field off it.
func valid() daemon.Config {
	return daemon.Config{
		App: "redis", Policy: "thermostat", Scale: "tiny",
		SlowdownPct: 3, IdleWindowS: 10,
	}
}

// list is the value the -tiers and -tenants flags store for s.
func list(s string) []string {
	var out []string
	listFlag(&out)(s)
	return out
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validate(valid()); err != nil {
		t.Fatalf("default-shaped config rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*daemon.Config)
		want   string // substring of the one-line usage error
	}{
		{"unknown app", func(o *daemon.Config) { o.App = "nope" }, "unknown application"},
		{"unknown policy", func(o *daemon.Config) { o.Policy = "nope" }, "unknown policy"},
		{"unknown scale", func(o *daemon.Config) { o.Scale = "nope" }, "unknown scale"},
		{"negative duration", func(o *daemon.Config) { o.DurationS = -1 }, "negative"},
		{"nonpositive slowdown", func(o *daemon.Config) { o.SlowdownPct = 0 }, "-slowdown"},
		{"nonpositive idle window", func(o *daemon.Config) {
			o.Policy = "idle-demote"
			o.IdleWindowS = -2
		}, "-idle-window"},
		{"negative chaos rate", func(o *daemon.Config) { o.Chaos.Rate = -0.1 }, "-chaos-rate"},
		{"chaos rate above one", func(o *daemon.Config) { o.Chaos.Rate = 1.5 }, "-chaos-rate"},
		{"negative permanent fraction", func(o *daemon.Config) { o.Chaos.PermanentFraction = -1 }, "-chaos-permanent"},
		{"permanent fraction above one", func(o *daemon.Config) { o.Chaos.PermanentFraction = 2 }, "-chaos-permanent"},
		{"chaos without migrating policy", func(o *daemon.Config) {
			o.Policy = "all-dram"
			o.Chaos.Rate = 0.1
		}, "migrating policy"},
		{"tiers under non-migrating policy", func(o *daemon.Config) {
			o.Policy = "idle-demote"
			o.Tiers = list("dram,cxl")
		}, "-tiers needs a migrating engine"},
		{"unknown tracker", func(o *daemon.Config) {
			o.Policy = "threshold"
			o.Tracker = "nosuch"
		}, "unknown tracker"},
		{"tracker under fixed arm", func(o *daemon.Config) {
			o.Tracker = "damon" // policy stays "thermostat"
		}, "needs a composition policy"},
		{"tracker under all-dram", func(o *daemon.Config) {
			o.Policy = "all-dram"
			o.Tracker = "idlebit"
		}, "needs a composition policy"},
		{"nonpositive slowdown for composition", func(o *daemon.Config) {
			o.Policy = "heat"
			o.SlowdownPct = 0
		}, "-slowdown"},
		{"tiers with chaos", func(o *daemon.Config) {
			o.Tiers = list("dram,cxl")
			o.Chaos.Rate = 0.1
		}, "not supported with -tiers"},
		{"unknown tier preset", func(o *daemon.Config) { o.Tiers = list("dram,quantum") }, "unknown device preset"},
		{"tenants with tiers", func(o *daemon.Config) {
			o.Tenants = list("redis,web-search")
			o.Tiers = list("dram,cxl")
		}, "not supported with -tiers"},
		{"tenants under non-migrating policy", func(o *daemon.Config) {
			o.Tenants = list("redis,web-search")
			o.Policy = "all-dram"
		}, "-tenants needs a migrating per-tenant engine"},
		{"unknown tenant app", func(o *daemon.Config) { o.Tenants = list("redis, nope") }, "unknown tenant application"},
		{"unknown log format", func(o *daemon.Config) { o.LogFormat = "yaml" }, "-log-format"},
		{"unparseable footprint", func(o *daemon.Config) { o.Footprint = "lots" }, "-footprint"},
		{"nonpositive footprint", func(o *daemon.Config) { o.Footprint = "-4G" }, "-footprint"},
		{"footprint with tenants", func(o *daemon.Config) {
			o.Footprint = "64G"
			o.Tenants = list("redis,web-search")
		}, "ambiguous"},
		{"single tier", func(o *daemon.Config) { o.Tiers = list("dram") }, "at least two tiers"},
		{"negative workers", func(o *daemon.Config) { o.Workers = -1 }, "-workers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mutate(&o)
			err := validate(o)
			if err == nil {
				t.Fatalf("config %+v accepted", o)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("usage error spans lines: %q", err)
			}
		})
	}
}

func TestValidateAcceptsObservabilityCombos(t *testing.T) {
	o := valid()
	o.Serve, o.LogFormat = "localhost:9090", "json"
	if err := validate(o); err != nil {
		t.Fatalf("-serve with json logs rejected: %v", err)
	}
}

func TestValidateAcceptsScalingCombos(t *testing.T) {
	for _, fp := range []string{"512m", "64G", "1.5TiB", "1t"} {
		o := valid()
		o.Footprint = fp
		if err := validate(o); err != nil {
			t.Fatalf("-footprint %s rejected: %v", fp, err)
		}
	}
	o := valid()
	o.App, o.Footprint = "scale-synth", "1T"
	if err := validate(o); err != nil {
		t.Fatalf("scaling combo rejected: %v", err)
	}
}

func TestValidateAcceptsChaosAndTierCombos(t *testing.T) {
	o := valid()
	o.Chaos.Rate, o.Chaos.PermanentFraction = 0.5, 1
	if err := validate(o); err != nil {
		t.Fatalf("chaos under thermostat rejected: %v", err)
	}
	o = valid()
	o.Policy = "idle-demote"
	o.Chaos.Rate = 0.2
	if err := validate(o); err != nil {
		t.Fatalf("chaos under idle-demote rejected: %v", err)
	}
	o = valid()
	o.Tiers = list("dram, cxl ,nvm")
	if err := validate(o); err != nil {
		t.Fatalf("whitespace-padded presets rejected: %v", err)
	}
}

func TestValidateAcceptsCompositions(t *testing.T) {
	for _, tracker := range []string{"", "poison", "idlebit", "softdirty", "damon"} {
		for _, policy := range []string{"threshold", "heat"} {
			o := valid()
			o.Tracker, o.Policy = tracker, policy
			if err := validate(o); err != nil {
				t.Fatalf("composition %q+%q rejected: %v", tracker, policy, err)
			}
		}
	}
	// Compositions migrate, so deep hierarchies and chaos both apply.
	o := valid()
	o.Policy, o.Tracker, o.Tiers = "heat", "damon", list("dram,cxl,nvm")
	if err := validate(o); err != nil {
		t.Fatalf("composition with -tiers rejected: %v", err)
	}
	o = valid()
	o.Policy, o.Chaos.Rate = "threshold", 0.2
	if err := validate(o); err != nil {
		t.Fatalf("composition with chaos rejected: %v", err)
	}
}

func TestValidateAcceptsTenantCombos(t *testing.T) {
	o := valid()
	o.Tenants = list("redis, web-search ,mysql-tpcc")
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet under thermostat rejected: %v", err)
	}
	// Fleet tenants run composition engines, so -tracker/-policy pairs and
	// machine-wide chaos both apply.
	o = valid()
	o.Tenants, o.Policy, o.Tracker = list("redis,redis"), "heat", "damon"
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet with composition rejected: %v", err)
	}
	o = valid()
	o.Tenants, o.Chaos.Rate, o.Chaos.PermanentFraction = list("redis,web-search"), 0.3, 0.5
	if err := validate(o); err != nil {
		t.Fatalf("tenant fleet with chaos rejected: %v", err)
	}
}
