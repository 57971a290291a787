// capacityplan: use the simulator as a provisioning tool (§6's "merits of
// slow memory software-emulation"): before buying slow memory, sweep
// slowdown targets and price points for your workload and see whether the
// cost savings are worth it.
//
//	go run ./examples/capacityplan
package main

import (
	"fmt"
	"log"

	"thermostat"
	"thermostat/internal/harness"
)

func main() {
	const scale = 32
	spec := thermostat.Cassandra(thermostat.WriteHeavy)

	baselineThroughput := 0.0
	fmt.Println("workload: cassandra (write-heavy), 8GB RSS + 4GB file at paper scale")
	fmt.Println()
	fmt.Println("target  measured  cold    savings at slow-memory price")
	fmt.Println("slowdn  slowdn    frac    1/3x    1/4x    1/5x")
	fmt.Println("------  --------  ------  ------  ------  ------")

	for _, target := range []float64{1, 3, 6, 10} {
		res, cold := run(spec, scale, target)
		if baselineThroughput == 0 {
			base, _ := run(spec, scale, 0) // 0 => all-DRAM baseline
			baselineThroughput = base.Throughput
		}
		slow := baselineThroughput/res.Throughput - 1
		fmt.Printf("%5.0f%%  %7.2f%%  %5.1f%%", target, slow*100, cold*100)
		for _, ratio := range harness.PaperRatios {
			s, err := harness.Savings([]harness.TierShare{
				{Name: "dram", Fraction: 1 - cold, CostRatio: 1},
				{Name: "slow", Fraction: cold, CostRatio: ratio},
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %5.1f%%", s*100)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("Reading the table: pick the row whose measured slowdown your SLA absorbs,")
	fmt.Println("then check the savings column for the slow-memory price you were quoted.")
	fmt.Println("If memory is ~20% of system cost, savings must exceed slowdown·(80/20) to")
	fmt.Println("be a net win.")
}

func run(spec thermostat.WorkloadSpec, scale uint64, targetPct float64) (*thermostat.RunResult, float64) {
	cfg := thermostat.DefaultMachineConfig(700<<20, 600<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 2, 32
	cfg.LLC.SizeBytes = 2 << 20
	m, err := thermostat.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, err := thermostat.NewWorkload(spec, scale, 9)
	if err != nil {
		log.Fatal(err)
	}
	var pol thermostat.Policy = thermostat.NullPolicy{Interval: 1e9}
	if targetPct > 0 {
		params := thermostat.DefaultParams()
		params.TolerableSlowdownPct = targetPct
		params.SamplePeriodNs = 1e9
		eng, err := thermostat.NewEngine(params, 13)
		if err != nil {
			log.Fatal(err)
		}
		pol = eng
	}
	res, err := thermostat.Run(m, app, pol, thermostat.RunConfig{
		DurationNs: 45e9, WarmupNs: 10e9,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res, res.MeanColdFraction(10e9)
}
