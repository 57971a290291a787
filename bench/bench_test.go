package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"

	"thermostat/internal/harness"
)

// measureShort runs one scenario once per mode at a quarter of its virtual
// length.
func measureShort(t *testing.T, name string, modes ...bool) *workloadResult {
	t.Helper()
	r := &runner{sc: scenarioByName(name), seed: 1, short: true, outDir: t.TempDir()}
	w, err := r.measure(modes, 0, 1)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return w
}

// TestSmokeEveryWorkload runs every workload untraced and traced and holds
// the result to the names in the metric tables: every metric present, finite,
// and every end-to-end metric non-zero.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, sc := range scenarios() {
		w := measureShort(t, sc.name, false, true)
		if w.OpsFailed != 0 || w.OpsAttempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", sc.name, w.OpsFailed, w.OpsAttempted, w.Failures)
		}
		if w.SimDigest == "" || w.TracedDigest == "" {
			t.Errorf("%s: missing digests %q %q", sc.name, w.SimDigest, w.TracedDigest)
		}
		checkMetrics(t, sc.name, endToEnd, w.EndToEnd, true)
		checkMetrics(t, sc.name, perLayer, w.PerLayer, false)
		for _, share := range []string{"sim.machine_share_pct", "workload.next_share_pct", "core.tick_share_pct"} {
			if v := w.PerLayer[share]; v <= 0 || v >= 100 {
				t.Errorf("%s: %s = %v, want a share strictly between 0 and 100", sc.name, share, v)
			}
		}
	}
}

func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]float64, nonZero bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", workload, len(got), len(defs))
	}
	for _, d := range defs {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s missing", workload, d.Name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			t.Errorf("%s: %s = %v", workload, d.Name, v)
		case nonZero && v <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", workload, d.Name, v)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json equal to
// the tables in spec.go, and the tables inside the driver's limits.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want := benchmarkSpec()
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -print-spec > BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %q has a bound", d.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || !seen["setup_s"] {
		t.Errorf("metric tables outside the driver's limits")
	}
	for _, sc := range scenarios() {
		if !name.MatchString(sc.name) || len(sc.why) > 200 || seen[sc.name] {
			t.Errorf("workload %q breaks the naming rules (why is %d chars)", sc.name, len(sc.why))
		}
		seen[sc.name] = true
	}
}

// tracedRedis is one short traced redis-walk run shared by the tests below.
var tracedRedis = sync.OnceValues(func() (*repeatSample, *tracer) {
	dir, err := os.MkdirTemp("", "bench-test")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	r := &runner{sc: scenarioByName("redis-walk"), seed: 1, short: true, outDir: dir}
	tr := newTracer()
	s, err := r.repeat(tr)
	if err != nil {
		panic(err)
	}
	return s, tr
})

// TestSpanAccounting: children never exceed their parent, and the self
// times under the timed call add up to its duration exactly.
func TestSpanAccounting(t *testing.T) {
	_, tr := tracedRedis()
	children := make([]int64, len(tr.spans))
	root := int32(-1)
	for i, s := range tr.spans {
		if s.Busy < 0 || s.End < s.Start || s.Busy > s.End-s.Start {
			t.Fatalf("span %d %+v: negative or overfull", i, s)
		}
		if s.Parent >= 0 {
			children[s.Parent] += s.Busy
			p := tr.spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				t.Errorf("span %d %s [%d,%d] escapes its parent %s [%d,%d]", i, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if s.Name == "run" {
			root = int32(i)
		}
	}
	if root < 0 {
		t.Fatal("no run span")
	}
	for i, s := range tr.spans {
		if children[i] > s.Busy {
			t.Errorf("span %d %s: children cover %d ns of %d", i, s.Name, children[i], s.Busy)
		}
	}
	var sum int64
	for i, self := range tr.selfTimes() {
		if tr.under(int32(i), root) {
			sum += self
		}
	}
	if sum != tr.spans[root].Busy {
		t.Errorf("self times under run sum to %d ns, run took %d", sum, tr.spans[root].Busy)
	}
	for _, want := range []string{"workload.NextBatch", "workload.Tick", "core.Tick", "tracker.Estimates",
		"tracker.Arm", "policy.Correct", "policy.Place", "policy.Footprint", "bench.calib"} {
		if _, calls := tr.busy(root, want); calls == 0 {
			t.Errorf("no %s span under run: a decorator was bypassed", want)
		}
	}
}

// TestTracedDigestMatchesUntraced: the decorators observe and change nothing.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	traced, _ := tracedRedis()
	r := &runner{sc: scenarioByName("redis-walk"), seed: 1, short: true, outDir: t.TempDir()}
	plain, err := r.repeat(nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced.out.digest() != plain.out.digest() {
		t.Errorf("traced sim_digest %s, untraced %s", traced.out.digest(), plain.out.digest())
	}
	if len(traced.cap.reqs) == 0 {
		t.Error("traced run captured no requests for the replays")
	}
}

// TestFleetAssemblyMatchesHarness pins fleet-night's hand assembly to what
// harness.FleetRun builds from the same cast and pool.
func TestFleetAssemblyMatchesHarness(t *testing.T) {
	r := &runner{sc: scenarioByName("fleet-night"), seed: 1, short: true, outDir: t.TempDir()}
	s, err := r.repeat(nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := shorten(harness.Tiny(), true)
	tens, pool := fleetNightCast(sc)
	fo, err := harness.FleetRun(harness.FleetOptions{Scale: sc, Tenants: tens, FastBytes: pool})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.out.parts[0], digestFleet(fo.Result); got != want {
		t.Errorf("hand-assembled fleet digest %s, harness.FleetRun %s", got, want)
	}
}

func TestCalibrationChecksum(t *testing.T) {
	for i := 0; i < 3; i++ {
		if got := calibKernel(); got != calibChecksum {
			t.Fatalf("burst %d: checksum %#x, pinned %#x", i, got, uint64(calibChecksum))
		}
	}
}

// diffFixture is a two-workload result file with plausible values.
func diffFixture() *resultFile {
	f := &resultFile{Header: header{CPUModel: "test", NumCPU: 2, Seed: 1}}
	for _, name := range []string{"redis-walk", "bigmem-scan"} {
		f.Workloads = append(f.Workloads, &workloadResult{
			Name: name, SimDigest: "0123456789abcdef01234567", OpsAttempted: 1000,
			EndToEnd: map[string]float64{"host_cost_per_op": 130, "setup_s": 0.0001, "state_mb": 0.115, "virt_throughput_kops": 804.5, "fast_mem_pct": 96.2},
		})
	}
	return f
}

func TestDiff(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b *resultFile)
		ok     bool
	}{
		{"identical", func(*resultFile) {}, true},
		{"host cost +20%", func(b *resultFile) { b.Workloads[1].EndToEnd["host_cost_per_op"] *= 1.2 }, false},
		{"host cost +5%", func(b *resultFile) { b.Workloads[1].EndToEnd["host_cost_per_op"] *= 1.05 }, true},
		{"host cost -30%", func(b *resultFile) { b.Workloads[0].EndToEnd["host_cost_per_op"] *= 0.7 }, true},
		{"exact metric moved", func(b *resultFile) { b.Workloads[0].EndToEnd["fast_mem_pct"] -= 0.01 }, false},
		{"exact metric improved", func(b *resultFile) { b.Workloads[0].EndToEnd["virt_throughput_kops"] += 1 }, false},
		{"setup under the floor", func(b *resultFile) { b.Workloads[0].EndToEnd["setup_s"] *= 3 }, true},
		{"setup over floor and bound", func(b *resultFile) { b.Workloads[0].EndToEnd["setup_s"] += 0.06 }, false},
		{"failed share rose", func(b *resultFile) { b.Workloads[0].OpsFailed = 1 }, false},
		{"workload missing", func(b *resultFile) { b.Workloads = b.Workloads[:1] }, false},
		{"other seed, within bounds", func(b *resultFile) {
			b.Header.Seed = 2
			b.Workloads[0].EndToEnd["fast_mem_pct"] += 1
			b.Workloads[0].SimDigest = "ffffffffffffffffffffffff"
		}, true},
		{"other seed, throughput -2%", func(b *resultFile) {
			b.Header.Seed = 2
			b.Workloads[0].EndToEnd["virt_throughput_kops"] *= 0.98
		}, false},
	}
	for _, c := range cases {
		b := diffFixture()
		c.mutate(b)
		if got := diffResults(io.Discard, diffFixture(), b); got != c.ok {
			t.Errorf("%s: diff ok = %v, want %v", c.name, got, c.ok)
		}
	}
}
