package sim

import (
	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/telemetry"
)

// coldChecker is an optional Policy extension: it reports the policy's
// classification verdict for one 2MB page, letting the telemetry layer build
// the per-epoch classification-confusion matrix against the simulator's LLC
// ground truth (which no real hardware can observe).
type coldChecker interface {
	IsCold(base addr.Virt) bool
}

// faultReporter is an optional Policy extension: it summarizes chaos fault
// handling (injected/retried/rolled-back/quarantined). Policies that retry
// and quarantine (core.Engine) implement it; for the rest the tracker falls
// back to the machine-level report.
type faultReporter interface {
	FaultReport() chaos.Report
}

// epochTracker drives the telemetry epoch protocol for a Scheduler: it
// brackets every epoch (a policy interval under Run, an arbiter period under
// fleet.Run) with EpochStart/End events and emits one metric Snapshot per
// epoch. It only exists when a Recorder is installed, and roll and end on a
// nil tracker are no-ops, so the disabled path costs nothing and callers
// need no telemetry-enabled check.
type epochTracker struct {
	m   *Machine
	rec telemetry.Recorder
	cc  coldChecker   // nil when the policy has no cold set
	fr  faultReporter // nil when the policy has no fault handling

	epoch   uint64
	startNs int64
	// base is the cumulative counters at epoch start; the epoch's
	// snapshot is the delta against it.
	base       telemetry.Snapshot
	prevCounts map[addr.Virt]uint64 // LLC ground truth at epoch start
}

// newEpochTracker starts epoch 1 at the machine's current clock, recording
// into the machine's installed Recorder; it returns nil when there is none.
// pol, when non-nil, supplies the cold set (confusion matrix) and fault
// report; pass nil when no single policy owns the whole machine.
func newEpochTracker(m *Machine, pol Policy) *epochTracker {
	if m.Recorder() == nil {
		return nil
	}
	t := &epochTracker{m: m, rec: m.Recorder(), epoch: 1}
	if pol != nil {
		t.cc, _ = pol.(coldChecker)
		t.fr, _ = pol.(faultReporter)
	}
	t.begin(m.Clock())
	return t
}

// capture reads the machine's cumulative counters into the Counters rows
// of a Snapshot, and the per-tier accesses. The chaos counters come from
// the richest summary: the policy's (which includes retries and
// quarantines) when it reports one, else the machine's.
func (t *epochTracker) capture() telemetry.Snapshot {
	met := t.m.Metrics()
	meter := t.m.Meter()
	var rep chaos.Report
	if t.fr != nil {
		rep = t.fr.FaultReport()
	} else {
		rep = t.m.FaultReport()
	}
	return telemetry.Snapshot{
		Accesses:           met.Accesses,
		SlowAccesses:       met.SlowAccesses,
		TierAccesses:       met.TierAccesses,
		TLBMisses:          met.TLB.Misses,
		LLCMisses:          met.LLC.Misses,
		PoisonFaults:       met.PoisonFaults,
		MigrationBytes:     met.MigrationBytes,
		Demotions:          meter.Pages2M(mem.Demotion) + meter.Pages4K(mem.Demotion),
		Promotions:         meter.Pages2M(mem.Promotion) + meter.Pages4K(mem.Promotion),
		FaultsInjected:     rep.Injected,
		FaultsPermanent:    rep.Permanent,
		MigrationRetries:   rep.Retried,
		MigrationRollbacks: rep.RolledBack,
		PagesQuarantined:   rep.Quarantined,
	}
}

func (t *epochTracker) begin(nowNs int64) {
	t.startNs = nowNs
	t.base = t.capture()
	if t.m.PageCounts() != nil && t.cc != nil {
		t.prevCounts = t.m.PageCounts()
	}
	t.rec.Event(telemetry.Event{Kind: telemetry.KindEpochStart, TimeNs: nowNs, Epoch: t.epoch})
}

// roll closes the current epoch at nowNs (summary event + snapshot) and
// opens the next.
func (t *epochTracker) roll(nowNs int64) {
	if t == nil {
		return
	}
	t.end(nowNs)
	t.epoch++
	t.begin(nowNs)
}

// end closes the current epoch without opening a new one (run teardown).
func (t *epochTracker) end(nowNs int64) {
	if t == nil {
		return
	}
	snap := t.capture()
	snap.Sub(&t.base)
	snap.Epoch, snap.StartNs, snap.EndNs = t.epoch, t.startNs, nowNs
	snap.TierOccupancy = make([]uint64, t.m.Memory().NumTiers())
	for i, tier := range t.m.Memory().Tiers() {
		snap.TierOccupancy[i] = tier.Used()
	}

	// One page-table sweep gathers the poisoned-leaf count and the
	// placement-based hot/cold byte split. The per-2MB-page map is only
	// materialized when the confusion matrix actually consumes it (page
	// counts enabled + policy exposes a cold set).
	var counts map[addr.Virt]uint64
	if t.cc != nil && t.prevCounts != nil {
		counts = t.m.PageCounts()
	}
	confusion := counts != nil
	var pages map[addr.Virt]bool // 2MB base -> seen (confusion only)
	if confusion {
		pages = make(map[addr.Virt]bool)
	}
	sys := t.m.Memory()
	t.m.PageTable().Scan(func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		if e.Has(pagetable.Poisoned) {
			snap.PoisonedPages++
		}
		grain := addr.PageSize4K
		if lvl == pagetable.Level2M {
			grain = addr.PageSize2M
		}
		if sys.TierOf(e.Frame()) != mem.Fast {
			snap.ColdBytes += grain
		} else {
			snap.HotBytes += grain
		}
		if pages != nil {
			pages[base.Base2M()] = true
		}
	})

	// Confusion vs. LLC ground truth: a 2MB page is "truly accessed" if it
	// took at least one LLC miss this epoch.
	if confusion {
		snap.ConfusionValid = true
		for hb := range pages {
			accessed := counts[hb] > t.prevCounts[hb]
			cold := t.cc.IsCold(hb)
			switch {
			case cold && accessed:
				snap.ColdAccessed++
			case cold:
				snap.ColdIdle++
			case accessed:
				snap.HotAccessed++
			default:
				snap.HotIdle++
			}
		}
	}

	t.rec.Event(telemetry.Event{
		Kind: telemetry.KindTLBMiss, TimeNs: nowNs, Epoch: t.epoch,
		Count: snap.TLBMisses,
	})
	t.rec.Event(telemetry.Event{Kind: telemetry.KindEpochEnd, TimeNs: nowNs, Epoch: t.epoch})
	t.rec.Snapshot(snap)
}
