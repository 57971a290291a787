// Fleet-run telemetry: per-tenant epoch snapshots (the slowdown-vs-SLO
// series the arbiter steers by) and per-tenant trace extraction from a
// shared collector.
package telemetry

import (
	"bufio"
	"fmt"
	"io"
)

// TenantSnapshot is one tenant's state at one arbiter period boundary —
// the fleet analogue of Snapshot, recorded once per tenant per period.
type TenantSnapshot struct {
	// Epoch is the arbiter period number (1-based), EndNs its closing
	// virtual time.
	Epoch  uint64
	EndNs  int64
	Tenant string

	// GrantBytes is the DRAM grant in force during the period; UsageBytes
	// the tenant's top-tier residency at period end (its cgroup usage);
	// FootprintBytes its total mapped bytes across all tiers.
	GrantBytes     uint64
	UsageBytes     uint64
	FootprintBytes uint64

	// SlowdownPct is the tenant engine's own slowdown estimate (measured
	// cold-access rate × slow-memory latency) and SLOPct its objective.
	SlowdownPct float64
	SLOPct      float64

	// Ops is the tenant's cumulative access count at period end.
	Ops uint64
	// ColdPages and QuarantinedPages mirror the tenant engine's state.
	ColdPages        int
	QuarantinedPages int
}

// WriteTenantCSV emits tenant snapshots as CSV, one row per tenant per
// period, in the order given. Deterministic: byte-identical for identical
// series.
func WriteTenantCSV(w io.Writer, snaps []TenantSnapshot) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw,
		"period,end_s,tenant,grant_mb,usage_mb,footprint_mb,slowdown_pct,slo_pct,ops,cold_pages,quarantined"); err != nil {
		return err
	}
	for _, s := range snaps {
		if _, err := fmt.Fprintf(bw, "%d,%.3f,%s,%.1f,%.1f,%.1f,%.3f,%.3f,%d,%d,%d\n",
			s.Epoch, float64(s.EndNs)/1e9, s.Tenant,
			float64(s.GrantBytes)/(1<<20), float64(s.UsageBytes)/(1<<20),
			float64(s.FootprintBytes)/(1<<20),
			s.SlowdownPct, s.SLOPct, s.Ops, s.ColdPages, s.QuarantinedPages); err != nil {
			return err
		}
	}
	return bw.Flush()
}
