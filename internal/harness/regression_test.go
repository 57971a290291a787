package harness

import (
	"testing"

	"thermostat/internal/core"
	"thermostat/internal/workload"
)

// goldenTwoTier pins the deterministic two-tier results captured from the
// seed tree (Tiny scale, 3% tolerable slowdown, seed 1). The N-tier
// generalization must leave the paper's two-tier configuration bit-for-bit
// unchanged: every counter here — engine stats, final footprint, virtual
// clock, fault counts — must match exactly, not approximately.
var goldenTwoTier = []struct {
	spec workload.Spec

	periods, sampled, demotions, promotions, demoteFailures uint64
	hot2M, hot4K, cold2M, cold4K                            uint64
	ops, accesses, slowAccesses, poisonFaults               uint64
	clockNs                                                 int64
	coldPages                                               int
}{
	{
		spec:    workload.Redis(),
		periods: 20, sampled: 20, demotions: 2, promotions: 0, demoteFailures: 0,
		hot2M: 67108864, hot4K: 4194304, cold2M: 4194304, cold4K: 0,
		ops: 6413283, accesses: 6413283, slowAccesses: 2228, poisonFaults: 151390,
		clockNs:   8000001045,
		coldPages: 2,
	},
	{
		spec:    workload.MySQLTPCC(),
		periods: 20, sampled: 20, demotions: 4, promotions: 0, demoteFailures: 0,
		hot2M: 29360128, hot4K: 4194304, cold2M: 8388608, cold4K: 0,
		ops: 3176646, accesses: 3176646, slowAccesses: 0, poisonFaults: 19526,
		clockNs:   8000001311,
		coldPages: 4,
	},
}

func TestTwoTierGoldenRegression(t *testing.T) {
	t.Parallel()
	for _, g := range goldenTwoTier {
		t.Run(g.spec.Name, func(t *testing.T) {
			t.Parallel()
			out, err := Run(g.spec, Tiny(), Plan{SlowdownPct: 3})
			if err != nil {
				t.Fatal(err)
			}
			st := out.Engine.Stats()
			fp := out.Result.FinalFootprint
			met := out.Result.Metrics

			check := func(what string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d (two-tier determinism broken)", what, got, want)
				}
			}
			check("Periods", st.Periods, g.periods)
			check("Sampled", st.Sampled, g.sampled)
			check("Demotions", st.Demotions, g.demotions)
			check("Promotions", st.Promotions, g.promotions)
			check("DemoteFailures", st.DemoteFailures, g.demoteFailures)
			if st.Sinks != 0 {
				t.Errorf("Sinks = %d, want 0: sinking must never run on a two-tier machine", st.Sinks)
			}
			check("Hot2M", fp.Hot2M, g.hot2M)
			check("Hot4K", fp.Hot4K, g.hot4K)
			check("Cold2M", fp.Cold2M, g.cold2M)
			check("Cold4K", fp.Cold4K, g.cold4K)
			check("Ops", out.Result.Ops, g.ops)
			check("Accesses", met.Accesses, g.accesses)
			check("SlowAccesses", met.SlowAccesses, g.slowAccesses)
			check("PoisonFaults", met.PoisonFaults, g.poisonFaults)
			if met.ClockNs != g.clockNs {
				t.Errorf("ClockNs = %d, want %d", met.ClockNs, g.clockNs)
			}
			if got := out.Engine.ColdPages(); got != g.coldPages {
				t.Errorf("ColdPages = %d, want %d", got, g.coldPages)
			}
			// The per-tier access vector must be consistent with the legacy
			// fast/slow split on a two-tier machine.
			if n := len(met.TierAccesses); n != 2 {
				t.Fatalf("TierAccesses has %d tiers, want 2", n)
			}
			if met.TierAccesses[0]+met.TierAccesses[1] != met.Accesses {
				t.Errorf("TierAccesses sum %d+%d != Accesses %d",
					met.TierAccesses[0], met.TierAccesses[1], met.Accesses)
			}
			if met.TierAccesses[1] != met.SlowAccesses {
				t.Errorf("TierAccesses[1] = %d, want SlowAccesses %d",
					met.TierAccesses[1], met.SlowAccesses)
			}
		})
	}
}

// TestThreeTierGoldenRegression pins the deterministic three-tier results
// (Redis on the DRAM/CXL/NVM hierarchy, Tiny scale, 3% target, seed 1)
// captured from the PR 1 N-tier path, so tier-relative demotion, idle-page
// sinking, and the pair traffic matrix are regression-locked exactly like
// the two-tier configuration.
func TestThreeTierGoldenRegression(t *testing.T) {
	t.Parallel()
	out, err := Run(workload.Redis(), Tiny(), Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)})
	if err != nil {
		t.Fatal(err)
	}
	st := out.Engine.Stats()
	fp := out.Result.FinalFootprint
	met := out.Result.Metrics

	check := func(what string, got, want uint64) {
		t.Helper()
		if got != want {
			t.Errorf("%s = %d, want %d (three-tier determinism broken)", what, got, want)
		}
	}
	check("Periods", st.Periods, 20)
	check("Sampled", st.Sampled, 20)
	check("Demotions", st.Demotions, 2)
	check("Promotions", st.Promotions, 0)
	check("Sinks", st.Sinks, 1)
	check("DemoteFailures", st.DemoteFailures, 0)
	check("Hot2M", fp.Hot2M, 67108864)
	check("Hot4K", fp.Hot4K, 4194304)
	check("Cold2M", fp.Cold2M, 4194304)
	check("Cold4K", fp.Cold4K, 0)
	check("Ops", out.Result.Ops, 6412880)
	check("Accesses", met.Accesses, 6412880)
	check("SlowAccesses", met.SlowAccesses, 2228)
	check("PoisonFaults", met.PoisonFaults, 151366)
	if met.ClockNs != 8000001084 {
		t.Errorf("ClockNs = %d, want 8000001084", met.ClockNs)
	}
	if got := out.Engine.ColdPages(); got != 2 {
		t.Errorf("ColdPages = %d, want 2", got)
	}
	// Per-tier placement: the sunk page sits in NVM, its sibling in CXL.
	if n := len(fp.ByTier); n != 3 {
		t.Fatalf("ByTier has %d tiers, want 3", n)
	}
	check("tier0 bytes", fp.ByTier[0].Total(), 71303168)
	check("tier1 bytes", fp.ByTier[1].Total(), 2097152)
	check("tier2 bytes", fp.ByTier[2].Total(), 2097152)
	if want := []uint64{6410652, 2228, 0}; len(met.TierAccesses) != 3 ||
		met.TierAccesses[0] != want[0] || met.TierAccesses[1] != want[1] || met.TierAccesses[2] != want[2] {
		t.Errorf("TierAccesses = %v, want %v", met.TierAccesses, want)
	}

	rep, err := AnalyzeNTier(out)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Savings; got < 0.036111110 || got > 0.036111112 {
		t.Errorf("Savings = %.9f, want 0.036111111", got)
	}
	wantPairs := []struct {
		src, dst                int
		bytes, pages2M, pages4K uint64
	}{
		{0, 1, 4194304, 2, 0},
		{1, 2, 2097152, 1, 0},
	}
	if len(rep.Pairs) != len(wantPairs) {
		t.Fatalf("pair matrix has %d entries, want %d: %+v", len(rep.Pairs), len(wantPairs), rep.Pairs)
	}
	for i, w := range wantPairs {
		p := rep.Pairs[i]
		if int(p.Src) != w.src || int(p.Dst) != w.dst ||
			p.Bytes != w.bytes || p.Pages2M != w.pages2M || p.Pages4K != w.pages4K {
			t.Errorf("pair %d = %+v, want %+v", i, p, w)
		}
	}
}

// TestPlanShapesMatchSeedEntryPoints runs every Plan shape the thirteen old
// entry points covered (RunThermostat, RunComposed, RunBaseline, RunPolicy,
// RunPageMode, RunNTier{,Composed}, RunMatrixCell — now the policy matrix's
// cells — the matrix's tiered baseline, RunProfileGuided — now the
// profileGuided policy) on redis at Tiny scale, seed 1, and pins each to the
// numbers those entry points produced at the commit before the collapse.
// One assembly must mean the same runs, not similar ones.
func TestPlanShapesMatchSeedEntryPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen multi-second scaled runs")
	}
	t.Parallel()
	spec, sc := workload.Redis(), Tiny()
	plan := func(p Plan) func() (*Outcome, error) {
		return func() (*Outcome, error) { return Run(spec, sc, p) }
	}
	// cell is the matrix arm name on topology row topo (0 two-tier, 1
	// three-tier) of redis's policy-matrix rows.
	matrixRows, _ := matrix(Options{Scale: sc, Apps: []workload.Spec{spec}, SlowdownPct: 3})
	cell := func(topo int, name string) func() (*Outcome, error) {
		for _, a := range matrixRows[topo].arms {
			if a.name == name {
				return plan(a.plan)
			}
		}
		t.Fatalf("no matrix cell %s", name)
		return nil
	}
	for _, tc := range []struct {
		name string
		run  func() (*Outcome, error)

		policy                      string
		ops, slow, poison, coldByte uint64
		clockNs                     int64
		// pages/misses are the ground-truth page-count census and events the
		// telemetry event count, for the shapes that turn them on.
		pages  int
		misses uint64
		events int
	}{
		{name: "thermostat", run: plan(Plan{SlowdownPct: 3}),
			policy: "thermostat", ops: 6413283, slow: 2228, poison: 151390, coldByte: 4194304, clockNs: 8000001045},
		{name: "composed", run: plan(Plan{SlowdownPct: 3, Tracker: "poison", Placement: "threshold"}),
			policy: "poison+threshold", ops: 6413283, slow: 2228, poison: 151390, coldByte: 4194304, clockNs: 8000001045},
		{name: "composed-idlebit-heat", run: plan(Plan{SlowdownPct: 3, Tracker: "idlebit", Placement: "heat"}),
			policy: "idlebit+heat", ops: 6542321, coldByte: 10485760, clockNs: 8000001201},
		{name: "baseline", run: plan(Plan{}),
			policy: "all-dram", ops: 6542321, clockNs: 8000000117},
		{name: "idle-demote-policy", run: plan(Plan{Policy: &core.IdleDemote{Interval: sc.PeriodNs, IdleScans: 4, NoPromote: true}}),
			policy: "idle-demote", ops: 6542321, coldByte: 10485760, clockNs: 8000001201},
		{name: "4k-page-mode", run: plan(Plan{SmallPages: true}),
			policy: "all-dram", ops: 6427985, clockNs: 8000001147},
		{name: "three-tier", run: plan(Plan{SlowdownPct: 3, Tiers: DefaultThreeTier(0)}),
			policy: "thermostat", ops: 6412880, slow: 2228, poison: 151366, coldByte: 4194304, clockNs: 8000001084},
		{name: "three-tier-composed", run: plan(Plan{SlowdownPct: 3, Tracker: "damon", Placement: "heat", Tiers: DefaultThreeTier(0)}),
			policy: "damon+heat", ops: 6542321, clockNs: 8000000241},
		{name: "three-tier-baseline", run: plan(Plan{Tiers: DefaultThreeTier(0)}),
			policy: "all-dram", ops: 6542321, clockNs: 8000000117},
		{name: "matrix-cell-two-tier", run: cell(0, "poison+threshold"), policy: "poison+threshold", ops: 6413283, slow: 2228, poison: 151390, coldByte: 4194304, clockNs: 8000001045,
			pages: 31, misses: 34192, events: 151530},
		{name: "matrix-cell-three-tier", run: cell(1, "softdirty+heat"), policy: "softdirty+heat", ops: 6540684, slow: 1629, poison: 1620, coldByte: 12582912, clockNs: 8000000475,
			pages: 31, misses: 34825, events: 2349},
		{name: "profile-guided", run: plan(Plan{Policy: &profileGuided{spec, sc, 3}}),
			policy: "profile-guided", ops: 4380478, slow: 3777083, poison: 2643511, coldByte: 73400320, clockNs: 8000000581},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			met := out.Result.Metrics
			if out.Result.PolicyName != tc.policy {
				t.Errorf("policy = %q, want %q", out.Result.PolicyName, tc.policy)
			}
			for _, c := range []struct {
				what      string
				got, want uint64
			}{
				{"ops", out.Result.Ops, tc.ops},
				{"slow_accesses", met.SlowAccesses, tc.slow},
				{"poison_faults", met.PoisonFaults, tc.poison},
				{"cold_bytes", out.Result.FinalFootprint.Cold(), tc.coldByte},
				{"clock_ns", uint64(met.ClockNs), uint64(tc.clockNs)},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
				}
			}
			var misses uint64
			counts := out.Machine.PageCounts()
			for _, c := range counts {
				misses += c
			}
			if len(counts) != tc.pages || misses != tc.misses {
				t.Errorf("page counts: %d pages / %d misses, want %d / %d", len(counts), misses, tc.pages, tc.misses)
			}
			if tc.events > 0 && (out.Telemetry == nil || out.Telemetry.EventCount() != tc.events) {
				t.Errorf("telemetry collector %v does not hold the expected %d events", out.Telemetry != nil, tc.events)
			}
		})
	}
}

// goldenBenchCells pins redis at Bench() scale (3% target, seed 1) for the
// tracker × policy cells nothing else covers byte for byte: the heat policy
// with a promotion, the threshold policy over a non-sampling tracker, and
// the threshold policy sinking through three tiers. Recorded at the commit
// before the placement ledger (PR 24) and unchanged by it.
var goldenBenchCells = []struct {
	tracker, placement string
	threeTier          bool

	stats                        core.Stats
	hot2M, hot4K, cold2M, cold4K uint64
	ops, slowAccesses            uint64
	clockNs                      int64
	coldPages                    int
}{
	{
		tracker: "poison", placement: "heat",
		stats: core.Stats{Periods: 30, Sampled: 180, Demotions: 12, Promotions: 1},
		hot2M: 249561088, hot4K: 18874368, cold2M: 16777216, cold4K: 6291456,
		ops: 23744570, slowAccesses: 87433, clockNs: 30000000950, coldPages: 11,
	},
	{
		tracker: "idlebit", placement: "heat",
		stats: core.Stats{Periods: 30, Sampled: 3837, Demotions: 18, Promotions: 1},
		hot2M: 255852544, cold2M: 35651584,
		ops: 24430867, slowAccesses: 53961, clockNs: 30000001222, coldPages: 17,
	},
	{
		tracker: "damon", placement: "threshold",
		stats: core.Stats{Periods: 30, Sampled: 140, Demotions: 2, Promotions: 2},
		hot2M: 291504128,
		ops:   24430748, slowAccesses: 10303, clockNs: 30000000789, coldPages: 0,
	},
	{
		tracker: "idlebit", placement: "threshold", threeTier: true,
		stats: core.Stats{Periods: 30, Sampled: 3687, Demotions: 20, Promotions: 4, Sinks: 20},
		hot2M: 253755392, cold2M: 37748736,
		ops: 24391241, slowAccesses: 237815, clockNs: 30000001129, coldPages: 18,
	},
}

func TestBenchScaleGoldenCells(t *testing.T) {
	if testing.Short() {
		t.Skip("four bench-scale runs")
	}
	t.Parallel()
	for _, g := range goldenBenchCells {
		name := g.tracker + "+" + g.placement
		if g.threeTier {
			name += "/three-tier"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan := Plan{SlowdownPct: 3, Tracker: g.tracker, Placement: g.placement}
			if g.threeTier {
				plan.Tiers = DefaultThreeTier(0)
			}
			out, err := Run(workload.Redis(), Bench(), plan)
			if err != nil {
				t.Fatal(err)
			}
			if st := out.Engine.Stats(); st != g.stats {
				t.Errorf("Stats = %+v, want %+v", st, g.stats)
			}
			fp := out.Result.FinalFootprint
			met := out.Result.Metrics
			check := func(what string, got, want uint64) {
				t.Helper()
				if got != want {
					t.Errorf("%s = %d, want %d", what, got, want)
				}
			}
			check("Hot2M", fp.Hot2M, g.hot2M)
			check("Hot4K", fp.Hot4K, g.hot4K)
			check("Cold2M", fp.Cold2M, g.cold2M)
			check("Cold4K", fp.Cold4K, g.cold4K)
			check("Ops", out.Result.Ops, g.ops)
			check("SlowAccesses", met.SlowAccesses, g.slowAccesses)
			check("ClockNs", uint64(met.ClockNs), uint64(g.clockNs))
			check("ColdPages", uint64(out.Engine.ColdPages()), uint64(g.coldPages))
		})
	}
}
