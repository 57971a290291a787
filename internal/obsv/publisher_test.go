package obsv

import (
	"reflect"
	"testing"

	"thermostat/internal/telemetry"
)

// feed drives one synthetic run's worth of events and snapshots through r.
func feed(r telemetry.Recorder, epochs int) {
	for e := 1; e <= epochs; e++ {
		start := int64(e-1) * 1_000_000
		r.Event(telemetry.Event{Kind: telemetry.KindEpochStart, TimeNs: start, Epoch: uint64(e)})
		r.Event(telemetry.Event{Kind: telemetry.KindMigrated, TimeNs: start + 10, Bytes: 2 << 20, ToTier: 1})
		r.Event(telemetry.Event{Kind: telemetry.KindEpochEnd, TimeNs: start + 1_000_000})
		snap := telemetry.Snapshot{
			Epoch: uint64(e), StartNs: start, EndNs: start + 1_000_000,
			Accesses: 100, SlowAccesses: 7,
			TierAccesses:   []uint64{93, 7},
			TierOccupancy:  []uint64{64 << 20, 2 << 20},
			MigrationBytes: 2 << 20, Demotions: 1,
			ColdBytes: 2 << 20, HotBytes: 62 << 20,
		}
		// Every other counter moves too, by an amount that varies by epoch.
		for i, c := range telemetry.Counters {
			if *c.Of(&snap) == 0 {
				*c.Of(&snap) = uint64(e * (i + 1))
			}
		}
		r.Snapshot(snap)
	}
}

// TestTeeForwardsExactly pins the read-side-only contract at the unit
// level: a collector behind the publisher tee ends up in exactly the state
// of a collector fed directly.
func TestTeeForwardsExactly(t *testing.T) {
	t.Parallel()
	cfg := telemetry.Config{MaxEvents: 5, MaxSnapshots: 3}
	direct := telemetry.NewCollectorWith(cfg)
	teed := telemetry.NewCollectorWith(cfg)

	feed(direct, 4)
	p := NewPublisher()
	feed(p.Recorder("run", teed), 4)

	if !reflect.DeepEqual(direct.Events(), teed.Events()) {
		t.Fatal("teed collector buffered different events")
	}
	if !reflect.DeepEqual(direct.Snapshots(), teed.Snapshots()) {
		t.Fatal("teed collector retained different snapshots")
	}
	if direct.Dropped() != teed.Dropped() || direct.Epoch() != teed.Epoch() {
		t.Fatalf("collector counters diverged: dropped %d/%d epoch %d/%d",
			direct.Dropped(), teed.Dropped(), direct.Epoch(), teed.Epoch())
	}
}

// TestPublisherMirrorsCollectorAccounting pins the drop/ring mirroring: the
// publisher computes drops and the ring high-water mark from the bounds
// rather than reading the collector, and the two must agree.
func TestPublisherMirrorsCollectorAccounting(t *testing.T) {
	t.Parallel()
	col := telemetry.NewCollectorWith(telemetry.Config{MaxEvents: 5, MaxSnapshots: 3})
	p := NewPublisher()
	feed(p.Recorder("run", col), 6)

	st := p.State()
	if len(st.Streams) != 1 {
		t.Fatalf("streams = %d", len(st.Streams))
	}
	s := st.Streams[0]
	if s.Dropped != col.Dropped() {
		t.Fatalf("mirrored dropped %d, collector %d", s.Dropped, col.Dropped())
	}
	if s.Dropped == 0 {
		t.Fatal("test fed too few events to overflow the cap")
	}
	if s.RingHighWater != col.RingHighWater() {
		t.Fatalf("mirrored high water %d, collector %d", s.RingHighWater, col.RingHighWater())
	}
	if s.SnapshotsSeen != col.SnapshotsSeen() {
		t.Fatalf("mirrored snapshots %d, collector %d", s.SnapshotsSeen, col.SnapshotsSeen())
	}
	if s.Events != uint64(col.EventCount())+col.Dropped() {
		t.Fatalf("mirrored events %d, collector %d+%d", s.Events, col.EventCount(), col.Dropped())
	}
	if s.Epoch != 6 || s.TimeNs != 6*1_000_000 {
		t.Fatalf("stream position epoch=%d timeNs=%d", s.Epoch, s.TimeNs)
	}
	// Counter totals accumulate the per-epoch deltas: every row's total is
	// its sum over the snapshots of a collector whose ring keeps them all.
	if s.Totals.Accesses != 600 || s.Totals.MigrationBytes != 6*(2<<20) {
		t.Fatalf("totals = %+v", s.Totals)
	}
	all := telemetry.NewCollector()
	feed(all, 6)
	for _, c := range telemetry.Counters {
		var want uint64
		for _, snap := range all.Snapshots() {
			want += *c.Of(&snap)
		}
		if got := *c.Of(&s.Totals); got != want || want == 0 {
			t.Errorf("%s: total %d, want the snapshots' nonzero sum %d", c.Family, got, want)
		}
	}
	if !reflect.DeepEqual(s.Totals.TierAccesses, []uint64{6 * 93, 6 * 7}) {
		t.Errorf("tier access totals %v, want [%d %d]", s.Totals.TierAccesses, 6*93, 6*7)
	}
	if !s.HasSnapshot || s.Last.Epoch != 6 {
		t.Fatalf("last snapshot = %+v", s.Last)
	}
}

// TestPublisherWithoutCollector covers the -serve-without-telemetry path:
// a nil inner collector must not panic and mirrors with no drop cap.
func TestPublisherWithoutCollector(t *testing.T) {
	t.Parallel()
	p := NewPublisher()
	feed(p.Recorder("solo", nil), 2)
	s := p.State().Streams[0]
	if s.Dropped != 0 || s.Events == 0 || s.SnapshotsSeen != 2 {
		t.Fatalf("stream = %+v", s)
	}
}

// TestPublisherTenantLifecycle drives tenant events and arbiter snapshots
// through the tee and checks /tenants-visible state.
func TestPublisherTenantLifecycle(t *testing.T) {
	t.Parallel()
	p := NewPublisher()
	rec := p.Recorder("fleet", nil)
	rec.Event(telemetry.Event{Kind: telemetry.KindTenantArrived, TimeNs: 100, Tenant: "redis", Bytes: 1 << 30})
	rec.Event(telemetry.Event{Kind: telemetry.KindGrantChanged, TimeNs: 200, Tenant: "redis", Bytes: 2 << 30})
	sink, ok := rec.(telemetry.TenantSink)
	if !ok {
		t.Fatal("publisher recorder does not implement TenantSink")
	}
	sink.TenantSnapshot(telemetry.TenantSnapshot{
		Epoch: 1, EndNs: 300, Tenant: "redis",
		GrantBytes: 2 << 30, SlowdownPct: 1.5, SLOPct: 3,
	})
	rec.Event(telemetry.Event{Kind: telemetry.KindTenantDeparted, TimeNs: 400, Tenant: "redis", Bytes: 2 << 30})

	ts := p.State().Tenants
	if len(ts) != 1 {
		t.Fatalf("tenants = %d", len(ts))
	}
	tn := ts[0]
	if tn.Name != "redis" || tn.Resident || tn.ArrivedNs != 100 || tn.DepartedNs != 400 {
		t.Fatalf("tenant = %+v", tn)
	}
	if !tn.HasSnap || tn.Last.SlowdownPct != 1.5 || tn.GrantBytes != 2<<30 {
		t.Fatalf("tenant snapshot = %+v", tn)
	}
}

func TestLogFormats(t *testing.T) {
	t.Parallel()
	for _, f := range []string{LogText, LogJSON, ""} {
		if _, err := NewLogger(nil, f); err != nil {
			t.Fatalf("NewLogger(%q): %v", f, err)
		}
	}
	if _, err := NewLogger(nil, "yaml"); err == nil {
		t.Fatal("NewLogger accepted unknown format")
	}
	if ValidLogFormat("yaml") || !ValidLogFormat(LogJSON) {
		t.Fatal("ValidLogFormat wrong")
	}
}
