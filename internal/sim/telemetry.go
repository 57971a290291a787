package sim

import (
	"thermostat/internal/addr"
	"thermostat/internal/chaos"
	"thermostat/internal/mem"
	"thermostat/internal/pagetable"
	"thermostat/internal/telemetry"
)

// ColdChecker is an optional Policy extension: it reports the policy's
// classification verdict for one 2MB page, letting the telemetry layer build
// the per-epoch classification-confusion matrix against the simulator's LLC
// ground truth (which no real hardware can observe).
type ColdChecker interface {
	IsCold(base addr.Virt) bool
}

// FaultReporter is an optional Policy extension: it summarizes chaos fault
// handling (injected/retried/rolled-back/quarantined). Policies that retry
// and quarantine (core.Engine) implement it; for the rest the tracker falls
// back to the machine-level report.
type FaultReporter interface {
	FaultReport() chaos.Report
}

// epochBase is the machine counter baseline captured at an epoch boundary;
// the next boundary's snapshot is the delta against it.
type epochBase struct {
	accesses     uint64
	slow         uint64
	tierAccesses []uint64
	tlbMisses    uint64
	llcMisses    uint64
	faults       uint64
	migBytes     uint64
	demotions    uint64
	promotions   uint64
	chaos        chaos.Report
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
	cc  ColdChecker   // nil when the policy has no cold set
	fr  FaultReporter // nil when the policy has no fault handling

	epoch      uint64
	startNs    int64
	base       epochBase
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
		t.cc, _ = pol.(ColdChecker)
		t.fr, _ = pol.(FaultReporter)
	}
	t.begin(m.Clock())
	return t
}

// faultReport reads the richest available chaos summary: the policy's (which
// includes retries/quarantines) when it reports one, else the machine's.
func (t *epochTracker) faultReport() chaos.Report {
	if t.fr != nil {
		return t.fr.FaultReport()
	}
	return t.m.FaultReport()
}

func (t *epochTracker) capture() epochBase {
	met := t.m.Metrics()
	meter := t.m.Meter()
	return epochBase{
		accesses:     met.Accesses,
		slow:         met.SlowAccesses,
		tierAccesses: met.TierAccesses,
		tlbMisses:    met.TLB.Misses,
		llcMisses:    met.LLC.Misses,
		faults:       met.PoisonFaults,
		migBytes:     met.MigrationBytes,
		demotions:    meter.Pages2M(mem.Demotion) + meter.Pages4K(mem.Demotion),
		promotions:   meter.Pages2M(mem.Promotion) + meter.Pages4K(mem.Promotion),
		chaos:        t.faultReport(),
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
	cur := t.capture()
	snap := telemetry.Snapshot{
		Epoch:          t.epoch,
		StartNs:        t.startNs,
		EndNs:          nowNs,
		Accesses:       cur.accesses - t.base.accesses,
		SlowAccesses:   cur.slow - t.base.slow,
		TLBMisses:      cur.tlbMisses - t.base.tlbMisses,
		LLCMisses:      cur.llcMisses - t.base.llcMisses,
		PoisonFaults:   cur.faults - t.base.faults,
		MigrationBytes: cur.migBytes - t.base.migBytes,
		Demotions:      cur.demotions - t.base.demotions,
		Promotions:     cur.promotions - t.base.promotions,
	}
	if d := cur.chaos.Sub(t.base.chaos); !d.Zero() {
		snap.FaultsInjected = d.Injected
		snap.FaultsPermanent = d.Permanent
		snap.MigrationRetries = d.Retried
		snap.MigrationRollbacks = d.RolledBack
		snap.PagesQuarantined = d.Quarantined
	}
	snap.TierAccesses = make([]uint64, len(cur.tierAccesses))
	for i := range cur.tierAccesses {
		snap.TierAccesses[i] = cur.tierAccesses[i] - t.base.tierAccesses[i]
	}
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
		cold := sys.TierOf(e.Frame()) != mem.Fast
		grain := addr.PageSize4K
		if lvl == pagetable.Level2M {
			grain = addr.PageSize2M
		}
		snap.ColdBytes += boolBytes(cold, grain)
		snap.HotBytes += boolBytes(!cold, grain)
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

func boolBytes(b bool, n uint64) uint64 {
	if b {
		return n
	}
	return 0
}
