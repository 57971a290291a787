// Policy-matrix experiment: run every tracker × policy composition over
// every workload and tier topology, and score each cell on the three axes
// that matter for "which policy when" — how much the application slowed
// down, how much memory cost the placement saved, and how accurately the
// composition classified pages against the simulator's LLC ground truth
// (which no real system can observe).
package harness

import (
	"fmt"
	"io"

	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/pool"
	"thermostat/internal/pricing"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/workload"
)

// MatrixTopology names one tier hierarchy a matrix cell runs on. Nil Tiers
// selects the paper's two-tier configuration (fault-emulated slow memory);
// otherwise the machine runs in Device mode over the given hierarchy.
type MatrixTopology struct {
	Name  string
	Tiers []mem.Spec
}

// TwoTierTopology is the paper's DRAM + emulated-slow-memory config.
func TwoTierTopology() MatrixTopology { return MatrixTopology{Name: "2tier"} }

// ThreeTierTopology is the DRAM/CXL/NVM hierarchy of the N-tier experiment.
// Capacities are sized per workload by TieredMachineConfig.
func ThreeTierTopology() MatrixTopology {
	return MatrixTopology{Name: "3tier", Tiers: DefaultThreeTier(0)}
}

// MatrixOptions configures a PolicyMatrix sweep. Zero values select the
// full registry cross-product at Tiny scale with a 3% slowdown target.
type MatrixOptions struct {
	Scale       Scale
	Apps        []workload.Spec
	Trackers    []string
	Policies    []string
	Topologies  []MatrixTopology
	SlowdownPct float64
	// Workers bounds pool parallelism (0 = pool default).
	Workers int
}

func (o MatrixOptions) withDefaults() MatrixOptions {
	if o.Scale.Div == 0 {
		o.Scale = Tiny()
	}
	if len(o.Apps) == 0 {
		for _, name := range []string{"redis", "mysql-tpcc"} {
			if spec, ok := workload.ByName(name); ok {
				o.Apps = append(o.Apps, spec)
			}
		}
	}
	if len(o.Trackers) == 0 {
		o.Trackers = core.TrackerNames()
	}
	if len(o.Policies) == 0 {
		o.Policies = core.PolicyNames()
	}
	if len(o.Topologies) == 0 {
		o.Topologies = []MatrixTopology{TwoTierTopology(), ThreeTierTopology()}
	}
	if o.SlowdownPct == 0 {
		o.SlowdownPct = 3
	}
	return o
}

// MatrixCell is one scored tracker × policy × workload × topology run.
type MatrixCell struct {
	App      string
	Topology string
	Tracker  string
	Policy   string

	// SlowdownPct is the throughput loss vs. the all-top-tier baseline on
	// the same topology, in percent.
	SlowdownPct float64
	// ColdFraction is the mean post-warmup fraction of the footprint held
	// below the top tier.
	ColdFraction float64
	// Savings is the memory-cost saving of the final placement relative
	// to an all-top-tier system (pricing model).
	Savings float64
	// Accuracy is (cold∧idle + hot∧accessed) / all classified pages,
	// summed over post-warmup telemetry epochs against LLC ground truth;
	// valid only when ConfusionValid.
	Accuracy       float64
	ConfusionValid bool

	Stats core.Stats
	Ops   uint64
}

// MatrixReport is a completed sweep.
type MatrixReport struct {
	Scale Scale
	Cells []MatrixCell
}

// RunMatrixCell runs one tracker × policy composition on one workload and
// topology, with ground-truth page counting and a telemetry collector
// enabled so the confusion matrix is available.
func RunMatrixCell(spec workload.Spec, sc Scale, topo MatrixTopology,
	tracker, policy string, slowdownPct float64) (*Outcome, error) {
	col := telemetry.NewCollector()
	out, err := Run(spec, sc, Plan{
		SlowdownPct: slowdownPct, Tracker: tracker, Placement: policy, Tiers: topo.Tiers,
		Config:  func(cfg *sim.Config) { cfg.Recorder = col },
		Machine: (*sim.Machine).EnablePageCounts,
	})
	if err != nil {
		return nil, err
	}
	out.Telemetry = col
	return out, nil
}

// confusionAccuracy folds the post-warmup confusion-matrix epochs into one
// accuracy number: correctly-idle cold pages plus correctly-accessed hot
// pages over everything classified.
func confusionAccuracy(col *telemetry.Collector, warmupNs int64) (float64, bool) {
	var right, total uint64
	for _, s := range col.Snapshots() {
		if !s.ConfusionValid || s.StartNs < warmupNs {
			continue
		}
		right += s.ColdIdle + s.HotAccessed
		total += s.ColdIdle + s.HotAccessed + s.ColdAccessed + s.HotIdle
	}
	if total == 0 {
		return 0, false
	}
	return float64(right) / float64(total), true
}

// placementSavings prices a final placement on sys against an all-top-tier
// system of the same footprint, using each tier's cost model.
func placementSavings(sys *mem.System, fp sim.Footprint) (float64, error) {
	if fp.ByTier == nil || fp.Total() == 0 {
		return 0, fmt.Errorf("harness: placement has no per-tier footprint")
	}
	topCost := sys.Tier(mem.Fast).Spec().CostPerGB
	if topCost <= 0 {
		return 0, fmt.Errorf("harness: top tier has no cost")
	}
	var shares []pricing.TierShare
	for i := 0; i < sys.NumTiers(); i++ {
		t := sys.Tier(mem.TierID(i))
		shares = append(shares, pricing.TierShare{
			Name:      t.Name(),
			Fraction:  float64(fp.ByTier[i].Total()) / float64(fp.Total()),
			CostRatio: t.Spec().CostPerGB / topCost,
		})
	}
	return pricing.SavingsTiered(shares)
}

// PolicyMatrix runs the full tracker × policy × workload × topology
// cross-product on the worker pool. Baselines (one per app × topology) run
// first; every composition cell is then scored against its topology's
// baseline.
func PolicyMatrix(opt MatrixOptions) (*MatrixReport, error) {
	opt = opt.withDefaults()
	if err := opt.Scale.Validate(); err != nil {
		return nil, err
	}

	// Baselines: one per app × topology.
	type baseKey struct{ app, topo string }
	var baseTasks []pool.Task[*Outcome]
	var baseKeys []baseKey
	for _, spec := range opt.Apps {
		for _, topo := range opt.Topologies {
			baseKeys = append(baseKeys, baseKey{spec.Name, topo.Name})
			baseTasks = append(baseTasks, pool.Task[*Outcome]{
				Label: fmt.Sprintf("matrix/%s/%s/baseline", spec.Name, topo.Name),
				Run: func() (*Outcome, error) {
					return Run(spec, opt.Scale, Plan{Tiers: topo.Tiers})
				},
			})
		}
	}
	baseOuts, err := pool.Map(opt.Workers, baseTasks)
	if err != nil {
		return nil, err
	}
	baselines := make(map[baseKey]*Outcome, len(baseOuts))
	for i, out := range baseOuts {
		baselines[baseKeys[i]] = out
	}

	// Cells.
	var tasks []pool.Task[MatrixCell]
	for _, spec := range opt.Apps {
		for _, topo := range opt.Topologies {
			for _, tracker := range opt.Trackers {
				for _, policy := range opt.Policies {
					base := baselines[baseKey{spec.Name, topo.Name}]
					tasks = append(tasks, pool.Task[MatrixCell]{
						Label: fmt.Sprintf("matrix/%s/%s/%s+%s",
							spec.Name, topo.Name, tracker, policy),
						Run: func() (MatrixCell, error) {
							out, err := RunMatrixCell(spec, opt.Scale, topo,
								tracker, policy, opt.SlowdownPct)
							if err != nil {
								return MatrixCell{}, err
							}
							cell := MatrixCell{
								App:      spec.Name,
								Topology: topo.Name,
								Tracker:  tracker,
								Policy:   policy,
								SlowdownPct: 100 *
									sim.Slowdown(base.Result, out.Result),
								ColdFraction: out.Result.MeanColdFraction(opt.Scale.WarmupNs),
								Stats:        out.Engine.Stats(),
								Ops:          out.Result.Ops,
							}
							cell.Accuracy, cell.ConfusionValid =
								confusionAccuracy(out.Telemetry, opt.Scale.WarmupNs)
							if sv, err := placementSavings(out.Machine.Memory(), out.Result.FinalFootprint); err == nil {
								cell.Savings = sv
							}
							return cell, nil
						},
					})
				}
			}
		}
	}
	cells, err := pool.Map(opt.Workers, tasks)
	if err != nil {
		return nil, err
	}
	return &MatrixReport{Scale: opt.Scale, Cells: cells}, nil
}

// Table renders the "which policy when" comparison.
func (r *MatrixReport) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Policy matrix (%s scale): slowdown vs. savings vs. accuracy", r.Scale.Name),
		"app", "topology", "tracker", "policy",
		"slowdown%", "coldfrac%", "savings%", "accuracy%",
		"demote", "promote", "sink", "quarantine")
	for _, c := range r.Cells {
		acc := "n/a"
		if c.ConfusionValid {
			acc = fmt.Sprintf("%.1f", c.Accuracy*100)
		}
		t.Add(c.App, c.Topology, c.Tracker, c.Policy,
			fmt.Sprintf("%.2f", c.SlowdownPct),
			fmt.Sprintf("%.1f", c.ColdFraction*100),
			fmt.Sprintf("%.1f", c.Savings*100),
			acc,
			fmt.Sprintf("%d", c.Stats.Demotions),
			fmt.Sprintf("%d", c.Stats.Promotions),
			fmt.Sprintf("%d", c.Stats.Sinks),
			fmt.Sprintf("%d", c.Stats.Quarantined),
		)
	}
	return t
}

// WriteCSV emits the cells in machine-readable form.
func (r *MatrixReport) WriteCSV(w io.Writer) error {
	return r.Table().WriteCSV(w)
}
