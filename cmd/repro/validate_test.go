package main

import (
	"strings"
	"testing"

	"thermostat/internal/daemon"
)

// valid returns a config that passes validation under -exp all; each case
// mutates one field off it.
func valid() daemon.Config {
	return daemon.Config{Policy: "thermostat", Scale: "repro", SlowdownPct: 3}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := validate("all", valid()); err != nil {
		t.Fatalf("default-shaped config rejected: %v", err)
	}
}

func TestValidateAcceptsCombos(t *testing.T) {
	o := valid()
	o.Apps = []string{"redis", " web-search"}
	o.Serve, o.LogFormat = "localhost:9090", "json"
	if err := validate("fig1, table1 ,fleet", o); err != nil {
		t.Fatalf("config rejected: %v", err)
	}
	o = valid()
	o.LogFormat = "" // empty means the text default
	if err := validate("all", o); err != nil {
		t.Fatalf("empty log format rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		exps   string
		mutate func(*daemon.Config)
		want   string // substring of the one-line usage error
	}{
		{"unknown experiment", "fig1,nope", func(*daemon.Config) {}, "unknown experiment"},
		{"unknown scale", "all", func(o *daemon.Config) { o.Scale = "huge" }, "unknown scale"},
		{"unknown app", "all", func(o *daemon.Config) { o.Apps = []string{"redis", "nope"} }, "unknown application"},
		{"nonpositive slowdown", "all", func(o *daemon.Config) { o.SlowdownPct = 0 }, "-slowdown"},
		{"negative duration", "all", func(o *daemon.Config) { o.DurationS = -1 }, "negative"},
		{"unknown log format", "all", func(o *daemon.Config) { o.LogFormat = "yaml" }, "-log-format"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := valid()
			tc.mutate(&o)
			err := validate(tc.exps, o)
			if err == nil {
				t.Fatalf("-exp %s with config %+v accepted", tc.exps, o)
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
