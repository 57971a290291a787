package harness

import (
	"fmt"
	"io/fs"
	"math"
	"path/filepath"
	"testing"

	"thermostat/internal/core"
	"thermostat/internal/golden"
	"thermostat/internal/mem"
	"thermostat/internal/workload"
)

// goldenRun is one pinned run (seed 1): the test that owns it, its subtest
// name, and the run. Its record is testdata/runs/<test>/<name>.json, and
// every number in it must match exactly, not approximately; re-record a
// deliberate move with -update (scripts/goldens.sh rebase).
type goldenRun struct {
	test, name string
	run        func() (*Outcome, error)
}

// goldenRuns is every pinned run:
//   - TestTwoTierGoldenRegression: the paper's two-tier configuration (Tiny,
//     3% target), recorded from the seed tree;
//   - TestThreeTierGoldenRegression: redis on DRAM/CXL/NVM, so tier-relative
//     demotion, idle-page sinking and the pair matrix are locked the same way;
//   - TestPlanShapesMatchSeedEntryPoints: every Plan shape the thirteen old
//     Run* entry points covered, pinned to the numbers they produced before
//     the collapse into one assembly;
//   - TestBenchScaleGoldenCells: the Bench-scale tracker × policy cells
//     nothing else covers byte for byte (heat with a promotion, threshold
//     over a non-sampling tracker, threshold sinking through three tiers).
func goldenRuns() []goldenRun {
	redis, tiny := workload.Redis(), Tiny()
	run := func(spec workload.Spec, sc Scale, p Plan) func() (*Outcome, error) {
		return func() (*Outcome, error) { return Run(spec, sc, p) }
	}
	shape := func(p Plan) func() (*Outcome, error) { return run(redis, tiny, p) }
	// cell runs the named arm of redis's policy-matrix row on topology topo
	// (0 two-tier, 1 three-tier).
	cell := func(topo int, name string) func() (*Outcome, error) {
		return func() (*Outcome, error) {
			rows, _ := matrix(Options{Scale: tiny, Apps: []workload.Spec{redis}, SlowdownPct: 3})
			for _, a := range rows[topo].arms {
				if a.name == name {
					return Run(redis, tiny, a.plan)
				}
			}
			return nil, fmt.Errorf("no matrix cell %s", name)
		}
	}
	bench := func(tracker, placement string, tiers []mem.Spec) func() (*Outcome, error) {
		return run(redis, Bench(), Plan{SlowdownPct: 3, Tracker: tracker, Placement: placement, Tiers: tiers})
	}
	const shapes = "TestPlanShapesMatchSeedEntryPoints"
	return []goldenRun{
		{"TestTwoTierGoldenRegression", "redis", shape(Plan{SlowdownPct: 3})},
		{"TestTwoTierGoldenRegression", "mysql-tpcc", run(workload.MySQLTPCC(), tiny, Plan{SlowdownPct: 3})},
		{"TestThreeTierGoldenRegression", "redis", shape(Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)})},
		{shapes, "thermostat", shape(Plan{SlowdownPct: 3})},
		{shapes, "composed", shape(Plan{SlowdownPct: 3, Tracker: "poison", Placement: "threshold"})},
		{shapes, "composed-idlebit-heat", shape(Plan{SlowdownPct: 3, Tracker: "idlebit", Placement: "heat"})},
		{shapes, "baseline", shape(Plan{})},
		{shapes, "idle-demote-policy", shape(Plan{Policy: &core.IdleDemote{Interval: tiny.PeriodNs, IdleScans: 4, NoPromote: true}})},
		{shapes, "4k-page-mode", shape(Plan{SmallPages: true})},
		{shapes, "three-tier", shape(Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)})},
		{shapes, "three-tier-composed", shape(Plan{SlowdownPct: 3, Tracker: "damon", Placement: "heat", Tiers: DefaultThreeTier(0)})},
		{shapes, "three-tier-baseline", shape(Plan{Tiers: DefaultThreeTier(0)})},
		{shapes, "matrix-cell-two-tier", cell(0, "poison+threshold")},
		{shapes, "matrix-cell-three-tier", cell(1, "softdirty+heat")},
		{shapes, "profile-guided", shape(Plan{Policy: &profileGuided{redis, tiny, 3}})},
		{"TestBenchScaleGoldenCells", "poison+heat", bench("poison", "heat", nil)},
		{"TestBenchScaleGoldenCells", "idlebit+heat", bench("idlebit", "heat", nil)},
		{"TestBenchScaleGoldenCells", "damon+threshold", bench("damon", "threshold", nil)},
		{"TestBenchScaleGoldenCells", "idlebit+threshold/three-tier", bench("idlebit", "threshold", DefaultThreeTier(0))},
	}
}

// runRecord is everything a golden run pins.
type runRecord struct {
	Policy       string `json:"policy"`
	Ops          uint64 `json:"ops"`
	Accesses     uint64 `json:"accesses"`
	SlowAccesses uint64 `json:"slow_accesses"`
	PoisonFaults uint64 `json:"poison_faults"`
	ClockNs      int64  `json:"clock_ns"`
	// DaemonNs is the modelled daemon CPU time charged off the critical path.
	DaemonNs int64 `json:"daemon_ns"`
	// Hot2M … Cold4K are the final footprint by grain and temperature,
	// TierBytes the same bytes by tier.
	Hot2M        uint64   `json:"hot_2m"`
	Hot4K        uint64   `json:"hot_4k"`
	Cold2M       uint64   `json:"cold_2m"`
	Cold4K       uint64   `json:"cold_4k"`
	TierBytes    []uint64 `json:"tier_bytes"`
	TierAccesses []uint64 `json:"tier_accesses"`
	// CensusPages and CensusMisses are the ground-truth page-count census
	// and Events the telemetry event count, for the runs that turn them on.
	CensusPages  int           `json:"census_pages"`
	CensusMisses uint64        `json:"census_misses"`
	Events       int           `json:"events"`
	Engine       *engineRecord `json:"engine,omitempty"`
}

// engineRecord is the part of a run record only engine runs have.
type engineRecord struct {
	Stats     core.Stats   `json:"stats"`
	ColdPages int          `json:"cold_pages"`
	Pairs     []pairRecord `json:"pairs"`
	// Savings is the placement's memory-cost saving, rounded to 1e-9.
	Savings float64 `json:"savings"`
}

type pairRecord struct {
	Src, Dst         mem.TierID
	Bytes            uint64
	Pages2M, Pages4K uint64
}

func recordOf(t *testing.T, out *Outcome) runRecord {
	fp, met := out.Result.FinalFootprint, out.Result.Metrics
	r := runRecord{
		Policy: out.Result.PolicyName, Ops: out.Result.Ops,
		Accesses: met.Accesses, SlowAccesses: met.SlowAccesses, PoisonFaults: met.PoisonFaults, ClockNs: met.ClockNs,
		DaemonNs: out.Machine.DaemonNs(),
		Hot2M:    fp.Hot2M, Hot4K: fp.Hot4K, Cold2M: fp.Cold2M, Cold4K: fp.Cold4K,
		TierAccesses: met.TierAccesses,
	}
	for _, b := range fp.ByTier {
		r.TierBytes = append(r.TierBytes, b.Total())
	}
	for _, c := range out.Machine.PageCounts() {
		r.CensusPages++
		r.CensusMisses += c
	}
	if out.Telemetry != nil {
		r.Events = out.Telemetry.EventCount()
	}
	if out.Engine != nil {
		rep, err := AnalyzeNTier(out)
		if err != nil {
			t.Fatal(err)
		}
		e := &engineRecord{Stats: rep.Stats, ColdPages: out.Engine.ColdPages(), Savings: math.Round(rep.Savings*1e9) / 1e9}
		for _, p := range rep.Pairs {
			e.Pairs = append(e.Pairs, pairRecord{p.Src, p.Dst, p.Bytes, p.Pages2M, p.Pages4K})
		}
		r.Engine = e
	}
	return r
}

// checkGoldenRuns runs every golden run t owns and compares its record; the
// checks that are invariants rather than pins stay here as code.
func checkGoldenRuns(t *testing.T) {
	t.Parallel()
	var owned int
	for _, g := range goldenRuns() {
		if g.test != t.Name() {
			continue
		}
		owned++
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			out, err := g.run()
			if err != nil {
				t.Fatal(err)
			}
			r := recordOf(t, out)
			var sum, slow uint64
			for i, n := range r.TierAccesses {
				sum += n
				if i > 0 {
					slow += n
				}
			}
			if sum != r.Accesses || slow != r.SlowAccesses {
				t.Errorf("TierAccesses %v sum to %d (below the top tier %d), want Accesses %d (SlowAccesses %d)",
					r.TierAccesses, sum, slow, r.Accesses, r.SlowAccesses)
			}
			if len(r.TierAccesses) == 2 && r.Engine != nil && r.Engine.Stats.Sinks != 0 {
				t.Errorf("Sinks = %d, want 0: sinking must never run on a two-tier machine", r.Engine.Stats.Sinks)
			}
			golden.JSON(t, "runs/"+t.Name()+".json", r)
		})
	}
	if owned == 0 {
		t.Fatalf("no golden run belongs to %s", t.Name())
	}
}

func TestTwoTierGoldenRegression(t *testing.T) { checkGoldenRuns(t) }

func TestThreeTierGoldenRegression(t *testing.T) { checkGoldenRuns(t) }

func TestPlanShapesMatchSeedEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen multi-second scaled runs")
	}
	checkGoldenRuns(t)
}

func TestBenchScaleGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("four bench-scale runs")
	}
	checkGoldenRuns(t)
}

// TestGoldenRunsHaveRecords catches a renamed or dropped run: every
// record under testdata/runs/ must belong to a table entry (a missing record
// fails the owning test itself).
func TestGoldenRunsHaveRecords(t *testing.T) {
	t.Parallel()
	want := map[string]bool{}
	for _, g := range goldenRuns() {
		want[filepath.Join("testdata", "runs", g.test, g.name+".json")] = true
	}
	err := filepath.WalkDir(filepath.Join("testdata", "runs"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !want[path] {
			t.Errorf("%s belongs to no golden run", path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
