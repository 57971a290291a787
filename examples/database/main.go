// database: the TPC-C scenario from the paper's motivation — an OLTP
// database whose LINEITEM table dominates the footprint but is almost never
// read. Thermostat finds it and moves it to slow memory while the hot
// tables and indexes stay in DRAM; the example then retunes the slowdown
// knob at runtime through the cgroup interface (§5.1).
//
//	go run ./examples/database
package main

import (
	"fmt"
	"log"

	"thermostat"
)

func main() {
	const scale = 16
	spec := thermostat.MySQLTPCC()

	cfg := thermostat.DefaultMachineConfig(800<<20, 700<<20)
	cfg.TLB.L1Entries, cfg.TLB.L2Entries = 4, 64
	cfg.LLC.SizeBytes = 3 << 20
	m, err := thermostat.NewMachine(cfg)
	if err != nil {
		log.Fatal(err)
	}
	app, err := thermostat.NewWorkload(spec, scale, 11)
	if err != nil {
		log.Fatal(err)
	}

	// Build the engine inside an explicit cgroup so the knob can move at
	// runtime.
	params := thermostat.DefaultParams()
	params.SamplePeriodNs = 15e8 // 1.5s scan interval for the short demo
	group, err := thermostat.NewGroup("oltp", params)
	if err != nil {
		log.Fatal(err)
	}
	engine := thermostat.NewEngineInGroup(group, 5)

	// Phase 1 runs at the conservative 3% target. At the first tick 30 s
	// in, the administrator decides 10% slowdown is acceptable tonight
	// (batch window) and retunes live — the same run goes on, on the same
	// machine and page tables. More lukewarm data becomes movable, but TPCC
	// saturates: the remaining tables are simply hot (Figure 11).
	start := m.Clock()
	var split int64
	var splitOps uint64
	var fp1 thermostat.Footprint
	res, err := thermostat.Run(m, app, engine, thermostat.RunConfig{
		DurationNs: 60e9,
		TickHook: func(now int64) error {
			if split != 0 || now-start < 30e9 {
				return nil
			}
			split, splitOps, fp1 = now, m.Metrics().Accesses, engine.Footprint(m)
			return group.SetTolerableSlowdown(10)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1 (3%% target):  %.0f ops/s, cold %4.0f%% of %d MB\n",
		float64(splitOps)*1e9/float64(split-start), fp1.ColdFraction()*100, fp1.Total()>>20)
	fp2 := res.FinalFootprint
	fmt.Printf("phase 2 (10%% target): %.0f ops/s, cold %4.0f%% of %d MB\n",
		float64(res.Ops-splitOps)*1e9/float64(m.Clock()-split), fp2.ColdFraction()*100, fp2.Total()>>20)

	st := engine.Stats()
	fmt.Printf("\nlifetime: %d pages sampled, %d demotions, %d corrections\n",
		st.Sampled, st.Demotions, st.Promotions)
	fmt.Println("\nLINEITEM-style history data is what moved: it is large, contiguous and")
	fmt.Println("nearly unread, so its estimated access rate sorts to the bottom of every")
	fmt.Println("sampling period. Raising the knob adds lukewarm order-history pages until")
	fmt.Println("the cold fraction saturates — everything left is genuinely hot.")
}
