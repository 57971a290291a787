// multitenant: the cloud-provider scenario from the paper's introduction —
// a host co-locates two customers' workloads and wants to substitute cheap
// memory transparently, per customer, with per-cgroup slowdown SLAs. Each
// tenant is a cgroup with its own Thermostat engine scoped to its own pages;
// both share one machine (one TLB, one LLC, one pair of memory tiers) under
// the fleet runner.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"

	"thermostat/internal/harness"
	"thermostat/internal/workload"
)

func main() {
	out, err := harness.FleetRun(harness.FleetOptions{
		Scale: harness.Bench(),
		Tenants: []harness.FleetTenant{
			// An OLTP database with a strict 1% SLA.
			{Name: "tenant-db", Spec: workload.MySQLTPCC(), SLOPct: 1},
			// A batch analytics job that tolerates 10%.
			{Name: "tenant-batch", Spec: workload.InMemAnalytics(), SLOPct: 10},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	var slow uint64
	fmt.Println("tenant        sla    throughput   cold    demoted  corrected")
	for _, t := range out.Result.Tenants {
		cold := t.FootprintBytes - t.FastBytes
		slow += cold
		fmt.Printf("%-12s  %-4s  %9.0f/s  %5.1f%%  %7d  %9d\n",
			t.Name, fmt.Sprintf("%g%%", t.SLOPct), t.Throughput,
			100*float64(cold)/float64(t.FootprintBytes),
			t.Stats.Demotions, t.Stats.Promotions)
	}
	fmt.Println()
	fmt.Printf("shared slow tier now holds %d MB across both tenants\n", slow>>20)
	fmt.Println()
	fmt.Println("Each engine samples, classifies, and corrects only inside its own cgroup's")
	fmt.Println("address ranges; fault counts on the shared trap are consumed as per-engine")
	fmt.Println("deltas, so neither tenant's monitoring disturbs the other's.")
}
