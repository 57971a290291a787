// Live integration tests: an in-process HTTP server scraped mid-run, the
// byte-identity contract (exports with and without a live server), and the
// golden Prometheus scrape from a seeded short run. External test package
// so it can use the harness (which imports obsv).
package obsv_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thermostat/internal/cgroup"
	"thermostat/internal/core"
	"thermostat/internal/golden"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// liveScale is the short seeded schedule the live tests run at.
func liveScale() harness.Scale {
	sc := harness.Tiny()
	sc.DurationNs = 4e9
	sc.WarmupNs = 1e9
	return sc
}

// epochHook wraps a Recorder and fires fn once, from the simulation
// goroutine, when the run reaches the given epoch — a deterministic
// "mid-run" moment for scraping.
type epochHook struct {
	telemetry.Recorder
	epoch uint64
	fired bool
	fn    func()
}

func (h *epochHook) Event(e telemetry.Event) {
	h.Recorder.Event(e)
	if !h.fired && e.Kind == telemetry.KindEpochStart && e.Epoch >= h.epoch {
		h.fired = true
		h.fn()
	}
}

// exports renders the collector's two export formats.
func exports(t *testing.T, col *telemetry.Collector) (trace, jsonl []byte) {
	t.Helper()
	var tb, jb bytes.Buffer
	if err := col.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if err := col.WriteJSONL(&jb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), jb.Bytes()
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d\n%s", url, resp.StatusCode, body)
	}
	return body
}

// TestServeScrapeMidRun is the acceptance-criteria integration test: a
// seeded run with a live server answers /metrics (parser-validated),
// /healthz, /status, /tenants and /dump mid-run, and its exports stay
// byte-identical to the same run without the server.
func TestServeScrapeMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := liveScale()
	spec, _ := workload.ByName("redis")
	bounds := telemetry.Config{MaxEvents: 512}

	// Control: the same seeded run with a bare collector, no publisher.
	ctrlCol := telemetry.NewCollectorWith(bounds)
	if _, err := harness.Run(spec, sc, harness.Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = ctrlCol }}); err != nil {
		t.Fatal(err)
	}
	wantTrace, wantJSONL := exports(t, ctrlCol)

	// Live run: collector behind the publisher tee, HTTP server up, all
	// endpoints scraped synchronously at epoch 5.
	pub := obsv.NewPublisher()
	pub.SetInfo(obsv.Info{Binary: "test", App: spec.Name, Tracker: "poison",
		Policy: "threshold", Scale: sc.Name, Seed: sc.Seed, Workers: 1})
	pub.SetPhase(obsv.PhaseRunning)
	srv := obsv.NewServer(pub)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	col := telemetry.NewCollectorWith(bounds)
	hook := &epochHook{
		Recorder: pub.Recorder("redis/thermostat", col),
		epoch:    5,
		fn: func() {
			if got := string(get(t, ts.URL+"/healthz")); got != "ok\n" {
				t.Errorf("/healthz = %q", got)
			}

			scrape := get(t, ts.URL+"/metrics")
			fams, err := obsv.ParseProm(bytes.NewReader(scrape))
			if err != nil {
				t.Errorf("mid-run /metrics failed strict parse: %v", err)
			}
			byName := map[string]obsv.Family{}
			for _, f := range fams {
				byName[f.Name] = f
			}
			for _, name := range []string{
				"thermostat_run_info", "thermostat_run_phase",
				"thermostat_accesses_total", "thermostat_tier_accesses_total",
				"thermostat_tier_occupancy_bytes", "thermostat_migration_bytes_total",
				"thermostat_cold_bytes", "thermostat_hot_bytes",
				"thermostat_telemetry_dropped_total", "thermostat_telemetry_ring_high_water",
			} {
				if _, ok := byName[name]; !ok {
					t.Errorf("mid-run scrape missing family %s", name)
				}
			}
			if f := byName["thermostat_accesses_total"]; len(f.Samples) != 1 || f.Samples[0].Value <= 0 {
				t.Errorf("thermostat_accesses_total = %+v", f.Samples)
			}

			var status struct {
				Phase string `json:"phase"`
				Runs  []struct {
					Run   string `json:"run"`
					Epoch uint64 `json:"epoch"`
				} `json:"runs"`
			}
			if err := json.Unmarshal(get(t, ts.URL+"/status"), &status); err != nil {
				t.Errorf("/status: %v", err)
			}
			if status.Phase != obsv.PhaseRunning || len(status.Runs) != 1 ||
				status.Runs[0].Run != "redis/thermostat" || status.Runs[0].Epoch < 5 {
				t.Errorf("/status = %+v", status)
			}

			var tenants []any
			if err := json.Unmarshal(get(t, ts.URL+"/tenants"), &tenants); err != nil {
				t.Errorf("/tenants: %v", err)
			}
			if len(tenants) != 0 {
				t.Errorf("/tenants on a solo run = %v", tenants)
			}

			dump := string(get(t, ts.URL+"/dump?what=accessed&n=8"))
			if !strings.Contains(dump, "classification census") {
				t.Errorf("/dump missing census:\n%s", dump)
			}
		},
	}
	_, err := harness.Run(spec, sc, harness.Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = hook },
		Engine: func(_ *cgroup.Group, eng *core.Engine) {
			eng.EnablePublish()
			pub.AttachEngine("redis/thermostat", eng)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !hook.fired {
		t.Fatal("run never reached the scrape epoch")
	}
	pub.SetPhase(obsv.PhaseDone)

	// Byte-identity: the teed collector's exports equal the control's.
	gotTrace, gotJSONL := exports(t, col)
	if !bytes.Equal(gotTrace, wantTrace) {
		t.Errorf("Chrome trace differs with a live server attached (%d vs %d bytes)",
			len(gotTrace), len(wantTrace))
	}
	if !bytes.Equal(gotJSONL, wantJSONL) {
		t.Errorf("JSONL metrics differ with a live server attached (%d vs %d bytes)",
			len(gotJSONL), len(wantJSONL))
	}

	// Unknown dump queries are rejected.
	resp, err := http.Get(ts.URL + "/dump?what=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/dump?what=bogus = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsGoldenScrape pins the full end-of-run scrape of a seeded short
// run: every family, sample, and formatting decision. Run with -update
// after intentional changes.
func TestMetricsGoldenScrape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := liveScale()
	spec, _ := workload.ByName("redis")

	pub := obsv.NewPublisher()
	pub.SetInfo(obsv.Info{Binary: "thermostat-sim", App: spec.Name, Tracker: "poison",
		Policy: "threshold", Scale: sc.Name, Seed: sc.Seed, Workers: 1})
	pub.SetPhase(obsv.PhaseRunning)
	col := telemetry.NewCollectorWith(telemetry.Config{MaxEvents: 512})
	_, err := harness.Run(spec, sc, harness.Plan{SlowdownPct: 3,
		Config: func(cfg *sim.Config) { cfg.Recorder = pub.Recorder("redis/thermostat", col) },
		Engine: func(_ *cgroup.Group, eng *core.Engine) {
			eng.EnablePublish()
			pub.AttachEngine("redis/thermostat", eng)
		}})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetPhase(obsv.PhaseDone)

	var buf bytes.Buffer
	if err := pub.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	// The golden scrape must satisfy the strict parser too.
	fams, err := obsv.ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("golden scrape fails strict parse: %v", err)
	}
	if len(fams) < 20 {
		t.Fatalf("suspiciously few families: %d", len(fams))
	}

	golden.Bytes(t, "metrics_golden.prom", buf.Bytes())
}

// TestFleetPublisherTenants runs a two-tenant fleet with the live plane
// attached and checks the per-tenant surface: arbiter snapshots mirrored
// via TenantSink, /tenants JSON, and per-tenant metric families.
func TestFleetPublisherTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scaled run")
	}
	t.Parallel()
	sc := liveScale()
	redis, _ := workload.ByName("redis")
	search, _ := workload.ByName("web-search")

	pub := obsv.NewPublisher()
	pub.SetPhase(obsv.PhaseRunning)
	_, err := harness.FleetRun(harness.FleetOptions{
		Scale: sc,
		Tenants: []harness.FleetTenant{
			{Name: "redis-a", Spec: redis, SLOPct: 3},
			{Name: "search-b", Spec: search, SLOPct: 10},
		},
		Publisher: pub,
	})
	if err != nil {
		t.Fatal(err)
	}
	pub.SetPhase(obsv.PhaseDone)

	st := pub.State()
	if len(st.Tenants) != 2 {
		t.Fatalf("mirrored tenants = %d, want 2", len(st.Tenants))
	}
	for _, tn := range st.Tenants {
		if !tn.HasSnap {
			t.Errorf("tenant %s never received an arbiter snapshot", tn.Name)
		}
		if !tn.Resident {
			t.Errorf("tenant %s not resident at end of run", tn.Name)
		}
	}
	if got := len(pub.Engines()); got != 2 {
		t.Fatalf("published engine censuses = %d, want 2", got)
	}

	srv := obsv.NewServer(pub)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var tenants []map[string]any
	if err := json.Unmarshal(get(t, ts.URL+"/tenants"), &tenants); err != nil {
		t.Fatal(err)
	}
	if len(tenants) != 2 {
		t.Fatalf("/tenants = %d entries, want 2", len(tenants))
	}
	for _, tn := range tenants {
		if tn["grant_bytes"].(float64) <= 0 {
			t.Errorf("tenant %v has no grant", tn["tenant"])
		}
	}

	scrape := get(t, ts.URL+"/metrics")
	fams, err := obsv.ParseProm(bytes.NewReader(scrape))
	if err != nil {
		t.Fatalf("fleet scrape failed strict parse: %v", err)
	}
	found := map[string]int{}
	for _, f := range fams {
		if strings.HasPrefix(f.Name, "thermostat_tenant_") || f.Name == "thermostat_engine_pages" {
			found[f.Name] = len(f.Samples)
		}
	}
	if found["thermostat_tenant_grant_bytes"] != 2 {
		t.Errorf("thermostat_tenant_grant_bytes samples = %d, want 2", found["thermostat_tenant_grant_bytes"])
	}
	if found["thermostat_engine_pages"] != 6 { // 2 engines x 3 classes
		t.Errorf("thermostat_engine_pages samples = %d, want 6", found["thermostat_engine_pages"])
	}
	if fmt.Sprint(found["thermostat_tenant_slo_slack_pct"]) != "2" {
		t.Errorf("thermostat_tenant_slo_slack_pct samples = %v, want 2", found["thermostat_tenant_slo_slack_pct"])
	}
}
