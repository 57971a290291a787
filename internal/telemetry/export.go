package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"thermostat/internal/chaos"
)

// Chrome trace_event lane (tid) assignment: one lane per event family so
// Perfetto renders epochs, sampling, placement and faults as parallel tracks.
const (
	laneEpochs    = 0
	laneSampling  = 1
	lanePlacement = 2
	laneFaults    = 3
	laneDaemons   = 4
)

func laneOf(k Kind) int {
	switch k {
	case KindEpochStart, KindEpochEnd, KindTLBMiss:
		return laneEpochs
	case KindPageSampled, KindClassified:
		return laneSampling
	case KindMigrated:
		return lanePlacement
	case KindFaultInjected, KindChaosFault:
		return laneFaults
	default:
		// huge-split / huge-collapse, and the fleet's tenant lifecycle and
		// grant revisions — all daemon work. The fleet kinds deliberately
		// share this existing lane: a new lane would add a thread_name
		// metadata record to every trace and break byte-compatibility with
		// pre-fleet goldens.
		return laneDaemons
	}
}

var laneNames = map[int]string{
	laneEpochs:    "epochs",
	laneSampling:  "sampling",
	lanePlacement: "placement",
	laneFaults:    "faults",
	laneDaemons:   "daemons",
}

// chromeEvent is one trace_event object. Field order is fixed by the struct,
// and encoding/json sorts map keys, so output is deterministic.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace writes the collector's contents in Chrome trace_event
// JSON array format, loadable in chrome://tracing or https://ui.perfetto.dev.
// Epochs render as duration slices, decision events as instants on
// per-family lanes, and snapshot metrics as counter tracks. Output is
// deterministic: byte-identical for identical collector contents.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Metadata: name the process and lanes.
	if err := emit(chromeEvent{Name: "process_name", Phase: "M", Pid: 1,
		Args: map[string]any{"name": "thermostat-sim"}}); err != nil {
		return err
	}
	for tid := laneEpochs; tid <= laneDaemons; tid++ {
		if err := emit(chromeEvent{Name: "thread_name", Phase: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": laneNames[tid]}}); err != nil {
			return err
		}
	}

	// Events. EpochStart/End pairs become B/E slices on the epoch lane.
	for _, e := range c.events {
		ev := chromeEvent{Name: e.Kind.String(), TsUs: usOf(e.TimeNs), Pid: 1, Tid: laneOf(e.Kind)}
		switch e.Kind {
		case KindEpochStart:
			ev.Name = fmt.Sprintf("epoch %d", e.Epoch)
			ev.Phase = "B"
		case KindEpochEnd:
			ev.Name = fmt.Sprintf("epoch %d", e.Epoch)
			ev.Phase = "E"
		default:
			ev.Phase = "i"
			ev.Scope = "t"
			args := map[string]any{"epoch": e.Epoch}
			if e.Page != 0 {
				args["page"] = e.Page.String()
			}
			if e.Kind == KindMigrated {
				args["from_tier"] = e.FromTier
				args["to_tier"] = e.ToTier
			}
			if e.Bytes != 0 {
				args["bytes"] = e.Bytes
			}
			if e.Count != 0 {
				args["count"] = e.Count
			}
			if e.Kind == KindClassified {
				args["rate"] = e.Rate
				args["cold"] = e.Cold
			}
			if e.Kind == KindPageSampled {
				args["was_cold"] = e.Cold
			}
			if e.Kind == KindChaosFault {
				args["site"] = chaos.Site(e.Site).String()
				args["permanent"] = e.Permanent
			}
			if e.Tenant != "" {
				args["tenant"] = e.Tenant
			}
			ev.Args = args
		}
		if err := emit(ev); err != nil {
			return err
		}
	}

	// Snapshots become counter tracks.
	for _, s := range c.Snapshots() {
		ts := usOf(s.EndNs)
		occ := map[string]any{}
		for i, b := range s.TierOccupancy {
			occ[fmt.Sprintf("tier%d_bytes", i)] = b
		}
		if err := emit(chromeEvent{Name: "occupancy", Phase: "C", TsUs: ts, Pid: 1, Args: occ}); err != nil {
			return err
		}
		acc := map[string]any{"slow": s.SlowAccesses, "total": s.Accesses}
		if err := emit(chromeEvent{Name: "accesses", Phase: "C", TsUs: ts, Pid: 1, Args: acc}); err != nil {
			return err
		}
		mig := map[string]any{
			"bytes": s.MigrationBytes, "demotions": s.Demotions, "promotions": s.Promotions,
		}
		if err := emit(chromeEvent{Name: "migration", Phase: "C", TsUs: ts, Pid: 1, Args: mig}); err != nil {
			return err
		}
		// The chaos track appears only when the epoch saw fault activity, so
		// traces from uninjected runs stay byte-identical.
		if s.FaultsInjected != 0 || s.MigrationRetries != 0 || s.MigrationRollbacks != 0 || s.PagesQuarantined != 0 {
			ch := map[string]any{
				"injected": s.FaultsInjected, "retried": s.MigrationRetries,
				"rolled_back": s.MigrationRollbacks, "quarantined": s.PagesQuarantined,
			}
			if err := emit(chromeEvent{Name: "chaos", Phase: "C", TsUs: ts, Pid: 1, Args: ch}); err != nil {
				return err
			}
		}
	}

	if c.dropped > 0 {
		if err := emit(chromeEvent{Name: "dropped_events", Phase: "M", Pid: 1,
			Args: map[string]any{"count": c.dropped}}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// jsonlSnapshot fixes the JSONL field order.
type jsonlSnapshot struct {
	Epoch          uint64   `json:"epoch"`
	StartNs        int64    `json:"start_ns"`
	EndNs          int64    `json:"end_ns"`
	Accesses       uint64   `json:"accesses"`
	SlowAccesses   uint64   `json:"slow_accesses"`
	TierAccesses   []uint64 `json:"tier_accesses,omitempty"`
	TierOccupancy  []uint64 `json:"tier_occupancy,omitempty"`
	TLBMisses      uint64   `json:"tlb_misses"`
	LLCMisses      uint64   `json:"llc_misses"`
	PoisonFaults   uint64   `json:"poison_faults"`
	PoisonedPages  uint64   `json:"poisoned_pages"`
	MigrationBytes uint64   `json:"migration_bytes"`
	Demotions      uint64   `json:"demotions"`
	Promotions     uint64   `json:"promotions"`
	ColdBytes      uint64   `json:"cold_bytes"`
	HotBytes       uint64   `json:"hot_bytes"`
	ConfusionValid bool     `json:"confusion_valid,omitempty"`
	ColdIdle       uint64   `json:"cold_idle,omitempty"`
	ColdAccessed   uint64   `json:"cold_accessed,omitempty"`
	HotIdle        uint64   `json:"hot_idle,omitempty"`
	HotAccessed    uint64   `json:"hot_accessed,omitempty"`
	// Chaos counters are omitted when zero so uninjected runs keep their
	// pre-chaos byte layout.
	FaultsInjected     uint64 `json:"chaos_injected,omitempty"`
	FaultsPermanent    uint64 `json:"chaos_permanent,omitempty"`
	MigrationRetries   uint64 `json:"migration_retries,omitempty"`
	MigrationRollbacks uint64 `json:"migration_rollbacks,omitempty"`
	PagesQuarantined   uint64 `json:"pages_quarantined,omitempty"`
}

// WriteJSONL writes one JSON object per retained epoch snapshot, oldest
// first — the metrics sink for offline analysis (jq, pandas).
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range c.Snapshots() {
		if err := enc.Encode(jsonlSnapshot{
			Epoch: s.Epoch, StartNs: s.StartNs, EndNs: s.EndNs,
			Accesses: s.Accesses, SlowAccesses: s.SlowAccesses,
			TierAccesses: s.TierAccesses, TierOccupancy: s.TierOccupancy,
			TLBMisses: s.TLBMisses, LLCMisses: s.LLCMisses,
			PoisonFaults: s.PoisonFaults, PoisonedPages: s.PoisonedPages,
			MigrationBytes: s.MigrationBytes, Demotions: s.Demotions,
			Promotions: s.Promotions, ColdBytes: s.ColdBytes, HotBytes: s.HotBytes,
			ConfusionValid: s.ConfusionValid, ColdIdle: s.ColdIdle,
			ColdAccessed: s.ColdAccessed, HotIdle: s.HotIdle, HotAccessed: s.HotAccessed,
			FaultsInjected: s.FaultsInjected, FaultsPermanent: s.FaultsPermanent,
			MigrationRetries: s.MigrationRetries, MigrationRollbacks: s.MigrationRollbacks,
			PagesQuarantined: s.PagesQuarantined,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFiles writes the Chrome trace to tracePath and the per-epoch JSONL to
// metricsPath; an empty path skips that export.
func (c *Collector) WriteFiles(tracePath, metricsPath string) error {
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{{tracePath, c.WriteChromeTrace}, {metricsPath, c.WriteJSONL}} {
		if out.path == "" {
			continue
		}
		f, err := os.Create(out.path)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// EpochTable renders the retained snapshots as a fixed-width human-readable
// table (the quickstart and CLI -epochs output).
func (c *Collector) EpochTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%5s %9s %12s %8s %10s %9s %7s %7s %9s %9s %6s %6s %6s %6s\n",
		"epoch", "end_s", "accesses", "slow%", "tlb_miss", "faults", "demote", "promote", "mig_mb", "cold_mb",
		"inject", "retry", "rollbk", "quar")
	for _, s := range c.Snapshots() {
		slowPct := 0.0
		if s.Accesses > 0 {
			slowPct = 100 * float64(s.SlowAccesses) / float64(s.Accesses)
		}
		fmt.Fprintf(&b, "%5d %9.2f %12d %8.2f %10d %9d %7d %7d %9.2f %9.1f %6d %6d %6d %6d\n",
			s.Epoch, float64(s.EndNs)/1e9, s.Accesses, slowPct,
			s.TLBMisses, s.PoisonFaults, s.Demotions, s.Promotions,
			float64(s.MigrationBytes)/(1<<20), float64(s.ColdBytes)/(1<<20),
			s.FaultsInjected, s.MigrationRetries, s.MigrationRollbacks, s.PagesQuarantined)
	}
	if c.dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped past the %d-event cap)\n", c.dropped, c.cfg.MaxEvents)
	}
	return b.String()
}
