package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"thermostat/internal/chaos"
)

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

// refWriteChromeTrace is the writer WriteChromeTrace replaced: every
// record a chromeEvent, its args a map, through json.Marshal. It is the
// oracle that pins the hand-appended records byte for byte.
func refWriteChromeTrace(c *Collector, w io.Writer) error {
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

// jsonlSnapshot is the struct WriteJSONL encoded before Snapshot carried
// the JSONL tags itself: the fields in JSONL order, each copied by hand.
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

// refWriteJSONL is the writer WriteJSONL replaced, the oracle that pins
// Snapshot's tags and field order to the JSONL schema byte for byte.
func refWriteJSONL(c *Collector, w io.Writer) error {
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
