// N-tier experiment: run Thermostat's engine over a hierarchy deeper than
// the paper's two tiers (e.g. local DRAM, a CXL expander, and NVM) and
// report what the two-tier tables cannot: the per-tier-pair migration
// traffic matrix and the per-tier cost breakdown of the final placement.
package harness

import (
	"fmt"

	"thermostat/internal/core"
	"thermostat/internal/mem"
	"thermostat/internal/pool"
	"thermostat/internal/report"
	"thermostat/internal/sim"
	"thermostat/internal/workload"
)

// DefaultThreeTier returns the DRAM/CXL/NVM hierarchy the N-tier experiment
// evaluates: 80ns local DRAM, a 250ns CXL-attached expander at half DRAM
// cost, and 1000ns NVM at a fifth. Each tier gets the given capacity.
func DefaultThreeTier(capacity uint64) []mem.Spec {
	return []mem.Spec{
		mem.DefaultDRAM(capacity),
		mem.DefaultCXL(capacity),
		mem.DefaultNVM(capacity),
	}
}

// TieredMachineConfig sizes a machine over the given hierarchy for spec's
// footprint under this scale. Capacities follow MachineConfig's sizing (top
// tier gets 25% headroom for the hot set); every non-top tier's device
// latency is time-dilated exactly as the two-tier slow tier is. The machine
// runs in Device mode so each tier's own latency is charged — with more than
// one slow tier the single-latency fault emulation can't distinguish them.
func (s Scale) TieredMachineConfig(spec workload.Spec, tiers []mem.Spec) sim.Config {
	footprint, headroom := s.footprint(spec)
	cfg := s.MachineConfig(spec, true)
	cfg.Mode = sim.Device
	cfg.Tiers = make([]mem.Spec, len(tiers))
	for i, t := range tiers {
		t.Capacity = footprint + headroom
		if i == 0 {
			t.Capacity += footprint / 4
		} else {
			t.ReadLatency *= s.TimeDilate
			t.WriteLatency *= s.TimeDilate
		}
		cfg.Tiers[i] = t
	}
	return cfg
}

// NTierSweep runs every app in opt.Apps under Thermostat on the given
// hierarchy and returns the analyzed reports in app order. The engine's
// demote/promote mechanics are tier-relative (cold pages sink one tier at a
// time, reheated pages climb back), so only the machine differs from a
// two-tier run. The per-app runs are independent and fan out across
// opt.Workers goroutines.
func NTierSweep(opt Options, tiers []mem.Spec) ([]*NTierReport, error) {
	opt = opt.withDefaults()
	tasks := make([]pool.Task[*NTierReport], len(opt.Apps))
	for i, spec := range opt.Apps {
		tasks[i] = pool.Task[*NTierReport]{
			Label: fmt.Sprintf("ntier/%s/%d-tiers", spec.Name, len(tiers)),
			Run: func() (*NTierReport, error) {
				out, err := Run(spec, opt.Scale, Plan{SlowdownPct: opt.SlowdownPct, Tiers: tiers})
				if err != nil {
					return nil, err
				}
				return AnalyzeNTier(out)
			},
		}
	}
	return pool.Map(opt.Workers, tasks)
}

// TierUsage is one tier's slice of the final placement.
type TierUsage struct {
	ID        mem.TierID
	Name      string
	Bytes     uint64
	Fraction  float64 // of the application footprint
	CostPerGB float64
	Accesses  uint64
}

// PairTrafficRow is one cell of the migration traffic matrix.
type PairTrafficRow struct {
	Src, Dst mem.TierID
	// SrcName and DstName are the tiers' device-class names, taken from the
	// machine that moved the pages.
	SrcName, DstName string
	Bytes            uint64
	Pages2M          uint64
	Pages4K          uint64
	// PaperMBps is the migration rate converted back to paper time units.
	PaperMBps float64
}

// NTierReport summarizes an N-tier outcome: where the footprint ended up,
// what moving it cost in migration traffic, and what the placement saves
// relative to an all-DRAM system.
type NTierReport struct {
	App     string
	Tiers   []TierUsage
	Pairs   []PairTrafficRow
	Stats   core.Stats
	Savings float64
}

// AnalyzeNTier builds the report from a finished N-tier outcome.
func AnalyzeNTier(out *Outcome) (*NTierReport, error) {
	if out.Engine == nil {
		return nil, fmt.Errorf("harness: N-tier report needs an engine outcome")
	}
	m := out.Machine
	sys := m.Memory()
	fp := out.Result.FinalFootprint
	met := out.Result.Metrics

	rep := &NTierReport{App: out.Spec.Name, Stats: out.Engine.Stats()}
	var err error
	if rep.Savings, err = placementSavings(sys, fp); err != nil {
		return nil, fmt.Errorf("harness: N-tier savings: %w", err)
	}
	for i := 0; i < sys.NumTiers(); i++ {
		t := sys.Tier(mem.TierID(i))
		rep.Tiers = append(rep.Tiers, TierUsage{
			ID: t.ID(), Name: t.Name(),
			Bytes:     fp.ByTier[i].Total(),
			Fraction:  float64(fp.ByTier[i].Total()) / float64(fp.Total()),
			CostPerGB: t.Spec().CostPerGB,
			Accesses:  met.TierAccesses[i],
		})
	}

	meter := m.Migrator().Meter()
	// Convert to paper-scale MB/s like Table 3: undo scan-interval
	// compression and footprint division.
	conv := out.Scale.PeriodCompression() / float64(out.Scale.Div)
	for _, p := range meter.Pairs() {
		tr := meter.PairTraffic(p.Src, p.Dst)
		rep.Pairs = append(rep.Pairs, PairTrafficRow{
			Src: p.Src, Dst: p.Dst,
			SrcName: sys.Tier(p.Src).Name(), DstName: sys.Tier(p.Dst).Name(),
			Bytes: tr.Bytes, Pages2M: tr.Pages2M, Pages4K: tr.Pages4K,
			PaperMBps: meter.PairRateMBps(p.Src, p.Dst, met.ClockNs) / conv,
		})
	}
	return rep, nil
}

// TrafficTable renders the per-tier-pair migration matrix.
func (r *NTierReport) TrafficTable() *report.Table {
	t := report.NewTable(fmt.Sprintf("%s: per-tier-pair migration traffic", r.App),
		"src", "dst", "MB moved", "2M pages", "4K pages", "MB/s (paper)")
	for _, p := range r.Pairs {
		t.AddF(p.SrcName, p.DstName, fmt.Sprintf("%.1f", float64(p.Bytes)/1e6),
			p.Pages2M, p.Pages4K, fmt.Sprintf("%.2f", p.PaperMBps))
	}
	return t
}

// CostTable renders the per-tier placement and the blended savings.
func (r *NTierReport) CostTable() *report.Table {
	t := report.NewTable(fmt.Sprintf("%s: placement and cost (savings vs all-DRAM: %.1f%%)",
		r.App, r.Savings*100),
		"tier", "resident MB", "footprint %", "cost/GB", "accesses")
	for _, u := range r.Tiers {
		t.AddF(u.Name, fmt.Sprintf("%.1f", float64(u.Bytes)/1e6),
			fmt.Sprintf("%.1f", u.Fraction*100),
			fmt.Sprintf("%.2f", u.CostPerGB), u.Accesses)
	}
	return t
}
