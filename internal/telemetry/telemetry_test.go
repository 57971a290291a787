package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"thermostat/internal/addr"
	"thermostat/internal/golden"
)

func TestCollectorEpochStamping(t *testing.T) {
	c := NewCollector()
	c.Event(Event{Kind: KindFaultInjected, TimeNs: 5}) // before any epoch
	c.Event(Event{Kind: KindEpochStart, TimeNs: 10, Epoch: 1})
	c.Event(Event{Kind: KindMigrated, TimeNs: 20, Bytes: 4096})
	c.Event(Event{Kind: KindEpochEnd, TimeNs: 30})
	c.Event(Event{Kind: KindEpochStart, TimeNs: 30, Epoch: 2})
	c.Event(Event{Kind: KindClassified, TimeNs: 40})

	evs := c.Events()
	wantEpochs := []uint64{0, 1, 1, 1, 2, 2}
	if len(evs) != len(wantEpochs) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantEpochs))
	}
	for i, e := range evs {
		if e.Epoch != wantEpochs[i] {
			t.Errorf("event %d (%v): epoch = %d, want %d", i, e.Kind, e.Epoch, wantEpochs[i])
		}
	}
	if c.Epoch() != 2 {
		t.Fatalf("Epoch = %d, want 2", c.Epoch())
	}
}

func TestCollectorEventCap(t *testing.T) {
	c := NewCollectorWith(Config{MaxEvents: 3})
	for i := 0; i < 10; i++ {
		c.Event(Event{Kind: KindFaultInjected, TimeNs: int64(i)})
	}
	if c.EventCount() != 3 {
		t.Fatalf("EventCount = %d, want 3", c.EventCount())
	}
	if c.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", c.Dropped())
	}
	// The retained events are the first three, in record order.
	for i, e := range c.Events() {
		if e.TimeNs != int64(i) {
			t.Fatalf("event %d has TimeNs %d", i, e.TimeNs)
		}
	}
}

func TestCollectorSnapshotRing(t *testing.T) {
	c := NewCollectorWith(Config{MaxSnapshots: 4})
	for i := uint64(1); i <= 10; i++ {
		c.Snapshot(Snapshot{Epoch: i})
	}
	got := c.Snapshots()
	if len(got) != 4 {
		t.Fatalf("retained %d snapshots, want 4", len(got))
	}
	// The ring keeps the most recent epochs, oldest first.
	for i, s := range got {
		if want := uint64(7 + i); s.Epoch != want {
			t.Fatalf("snapshot %d: epoch %d, want %d", i, s.Epoch, want)
		}
	}
}

func TestCollectorRingWrapAccounting(t *testing.T) {
	const cap = 5
	c := NewCollectorWith(Config{MaxEvents: 3, MaxSnapshots: cap})
	if got := c.Bounds(); got.MaxEvents != 3 || got.MaxSnapshots != cap {
		t.Fatalf("Bounds = %+v, want {3 %d}", got, cap)
	}

	// Fill well past the ring capacity, checking accounting at each step.
	for i := uint64(1); i <= 3*cap; i++ {
		c.Snapshot(Snapshot{Epoch: i})
		if c.SnapshotsSeen() != i {
			t.Fatalf("after %d snapshots: SnapshotsSeen = %d", i, c.SnapshotsSeen())
		}
		wantHW := int(i)
		if wantHW > cap {
			wantHW = cap
		}
		if c.RingHighWater() != wantHW {
			t.Fatalf("after %d snapshots: RingHighWater = %d, want %d", i, c.RingHighWater(), wantHW)
		}
		// Oldest-first ordering must hold across every wrap position.
		snaps := c.Snapshots()
		first := i - uint64(len(snaps)) + 1
		for j, s := range snaps {
			if want := first + uint64(j); s.Epoch != want {
				t.Fatalf("after %d snapshots: snaps[%d].Epoch = %d, want %d", i, j, s.Epoch, want)
			}
		}
	}

	// Snapshot eviction never touches the event drop counter.
	if c.Dropped() != 0 {
		t.Fatalf("Dropped = %d after ring wrap, want 0", c.Dropped())
	}
	for i := 0; i < 10; i++ {
		c.Event(Event{Kind: KindFaultInjected, TimeNs: int64(i)})
	}
	if c.Dropped() != 7 {
		t.Fatalf("Dropped = %d, want 7", c.Dropped())
	}
	// And further wraps leave the drop count stable.
	c.Snapshot(Snapshot{Epoch: 3*cap + 1})
	if c.Dropped() != 7 || c.SnapshotsSeen() != 3*cap+1 {
		t.Fatalf("Dropped = %d SnapshotsSeen = %d after extra wrap", c.Dropped(), c.SnapshotsSeen())
	}
}

func TestCollectorSnapshotCopiesSlices(t *testing.T) {
	c := NewCollector()
	occ := []uint64{100, 200}
	c.Snapshot(Snapshot{Epoch: 1, TierOccupancy: occ, TierAccesses: occ})
	occ[0] = 999 // caller reuses its buffer
	s := c.Snapshots()[0]
	if s.TierOccupancy[0] != 100 || s.TierAccesses[0] != 100 {
		t.Fatal("Snapshot retained the caller's slice instead of copying")
	}
}

// syntheticCollector builds a small, fully deterministic collector whose
// exports are pinned as golden files.
func syntheticCollector() *Collector {
	c := NewCollectorWith(Config{MaxEvents: 8, MaxSnapshots: 8})
	c.Event(Event{Kind: KindEpochStart, TimeNs: 0, Epoch: 1})
	c.Event(Event{Kind: KindHugePageSplit, TimeNs: 100_000, Page: addr.Virt(2 << 20)})
	c.Event(Event{Kind: KindPageSampled, TimeNs: 100_000, Page: addr.Virt(2 << 20), Cold: false})
	c.Event(Event{Kind: KindFaultInjected, TimeNs: 250_000, Page: addr.Virt(2<<20 + 4096), Count: 1})
	c.Event(Event{Kind: KindClassified, TimeNs: 900_000, Page: addr.Virt(2 << 20), Rate: 12.5, Cold: true})
	c.Event(Event{Kind: KindMigrated, TimeNs: 950_000, Page: addr.Virt(2 << 20), FromTier: 0, ToTier: 1, Bytes: 2 << 20})
	c.Event(Event{Kind: KindTLBMiss, TimeNs: 1_000_000, Count: 4242})
	c.Event(Event{Kind: KindEpochEnd, TimeNs: 1_000_000})
	// Past the cap: dropped, counted.
	c.Event(Event{Kind: KindFaultInjected, TimeNs: 1_000_001})
	c.Event(Event{Kind: KindFaultInjected, TimeNs: 1_000_002})
	c.Snapshot(Snapshot{
		Epoch: 1, StartNs: 0, EndNs: 1_000_000,
		Accesses: 50_000, SlowAccesses: 120,
		TierAccesses: []uint64{49_880, 120}, TierOccupancy: []uint64{64 << 20, 2 << 20},
		TLBMisses: 4242, LLCMisses: 17_000, PoisonFaults: 1, PoisonedPages: 50,
		MigrationBytes: 2 << 20, Demotions: 1,
		ColdBytes: 2 << 20, HotBytes: 62 << 20,
		ConfusionValid: true, ColdIdle: 1, HotAccessed: 30, HotIdle: 2,
	})
	return c
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticCollector().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	// Structural sanity independent of the golden bytes.
	s := string(out)
	if !strings.HasPrefix(s, "[\n") || !strings.HasSuffix(s, "\n]\n") {
		t.Fatal("not a JSON array")
	}
	for _, want := range []string{`"ph":"B"`, `"ph":"E"`, `"ph":"i"`, `"ph":"C"`,
		`"name":"epoch 1"`, `"from_tier":0`, `"to_tier":1`, `"dropped_events"`} {
		if !strings.Contains(s, want) {
			t.Errorf("trace missing %s", want)
		}
	}
	golden.Bytes(t, "synthetic.trace.json", out)
}

func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := syntheticCollector().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Bytes(t, "synthetic.metrics.jsonl", buf.Bytes())
}

func TestEpochTable(t *testing.T) {
	table := syntheticCollector().EpochTable()
	for _, want := range []string{"epoch", "cold_mb", "dropped past the 8-event cap"} {
		if !strings.Contains(table, want) {
			t.Errorf("epoch table missing %q:\n%s", want, table)
		}
	}
	if lines := strings.Count(table, "\n"); lines != 3 { // header + 1 row + drop note
		t.Errorf("epoch table has %d lines, want 3:\n%s", lines, table)
	}
}

func TestExportsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := syntheticCollector().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := syntheticCollector().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical collectors exported different traces")
	}
}

// notCounters are Snapshot's uint64 fields that are not per-epoch
// counters: the epoch number, the gauges read at epoch end, and the
// confusion family's cells.
var notCounters = map[string]bool{"Epoch": true, "PoisonedPages": true, "ColdBytes": true, "HotBytes": true,
	"ColdIdle": true, "ColdAccessed": true, "HotIdle": true, "HotAccessed": true}

// TestCountersCoverSnapshot pins the one counter schema: every uint64
// field of Snapshot is one Counters row, exactly once, or a named
// non-counter, and each row's Key is its field's JSONL key, so a new
// counter cannot be left out of the epoch delta, the live totals or the
// /metrics families.
func TestCountersCoverSnapshot(t *testing.T) {
	var s Snapshot
	rows := map[*uint64]Counter{}
	families := map[string]bool{}
	for _, c := range Counters {
		if _, dup := rows[c.Of(&s)]; dup {
			t.Errorf("row %q names a field another row names", c.Key)
		}
		if families[c.Family] || !strings.HasSuffix(c.Family, "_total") || c.Help == "" {
			t.Errorf("row %q: family %q is repeated, lacks _total or has no help", c.Key, c.Family)
		}
		rows[c.Of(&s)], families[c.Family] = c, true
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			continue
		}
		p := v.Field(i).Addr().Interface().(*uint64)
		c, ok := rows[p]
		switch key, _, _ := strings.Cut(f.Tag.Get("json"), ","); {
		case ok == notCounters[f.Name]:
			t.Errorf("Snapshot.%s: in Counters %v, named a non-counter %v: want exactly one", f.Name, ok, notCounters[f.Name])
		case ok && c.Key != key:
			t.Errorf("Snapshot.%s: row key %q, JSONL key %q", f.Name, c.Key, key)
		}
		delete(rows, p)
	}
	for _, c := range rows {
		t.Errorf("row %q names no uint64 field of Snapshot", c.Key)
	}
}

// TestSnapshotAddSub: Add sums every Counters row and the per-tier
// accesses, growing the tiers, and Sub takes back what Add put in.
func TestSnapshotAddSub(t *testing.T) {
	one := Snapshot{TierAccesses: []uint64{5, 7}}
	for i, c := range Counters {
		*c.Of(&one) = uint64(i + 1)
	}
	var sum Snapshot
	sum.Add(&one)
	sum.Add(&one)
	for i, c := range Counters {
		if got := *c.Of(&sum); got != 2*uint64(i+1) {
			t.Errorf("%s: sum %d, want %d", c.Key, got, 2*(i+1))
		}
	}
	if !reflect.DeepEqual(sum.TierAccesses, []uint64{10, 14}) {
		t.Errorf("tier accesses sum %v, want [10 14]", sum.TierAccesses)
	}
	if sum.Sub(&one); !reflect.DeepEqual(sum, one) {
		t.Errorf("sum less one = %+v, want %+v", sum, one)
	}
}
