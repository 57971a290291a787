package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
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

func usOf(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace writes the collector's contents in Chrome trace_event
// JSON array format, loadable in chrome://tracing or https://ui.perfetto.dev.
// Epochs render as duration slices, decision events as instants on
// per-family lanes, and snapshot metrics as counter tracks. Output is
// deterministic: byte-identical for identical collector contents.
//
// Each record is appended by hand, byte for byte what encoding/json makes
// of it (keys in its sorted order, its number and string forms, an error
// for a NaN or infinite rate); ref_test.go keeps the json.Marshal writer
// as the oracle that pins this.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	t := traceWriter{bw: bufio.NewWriter(w)}
	t.bw.WriteString("[\n")

	// Metadata: name the process and lanes.
	t.open("process_name", 'M', 0, 0)
	t.args()
	t.stringArg("name", "thermostat-sim")
	t.close()
	for tid := laneEpochs; tid <= laneDaemons; tid++ {
		t.open("thread_name", 'M', 0, tid)
		t.args()
		t.stringArg("name", laneNames[tid])
		t.close()
	}

	// Events. EpochStart/End pairs become B/E slices on the epoch lane.
	for i := range c.events {
		e := &c.events[i]
		switch e.Kind {
		case KindEpochStart, KindEpochEnd:
			ph := byte('B')
			if e.Kind == KindEpochEnd {
				ph = 'E'
			}
			t.b = append(t.b, `{"name":"epoch `...)
			t.b = strconv.AppendUint(t.b, e.Epoch, 10)
			t.b = append(t.b, '"')
			t.fields(ph, usOf(e.TimeNs), laneEpochs)
		default:
			t.open(e.Kind.String(), 'i', usOf(e.TimeNs), laneOf(e.Kind))
			t.b = append(t.b, `,"s":"t"`...)
			if err := t.instantArgs(e); err != nil {
				return err
			}
		}
		t.close()
	}

	// Snapshots become counter tracks.
	for _, s := range c.Snapshots() {
		ts := usOf(s.EndNs)
		t.open("occupancy", 'C', ts, 0)
		if len(s.TierOccupancy) > 0 {
			t.args()
			for _, k := range t.tierKeys(len(s.TierOccupancy)) {
				t.uintArg(k.key, s.TierOccupancy[k.tier])
			}
		}
		t.close()
		t.open("accesses", 'C', ts, 0)
		t.args()
		t.uintArg("slow", s.SlowAccesses)
		t.uintArg("total", s.Accesses)
		t.close()
		t.open("migration", 'C', ts, 0)
		t.args()
		t.uintArg("bytes", s.MigrationBytes)
		t.uintArg("demotions", s.Demotions)
		t.uintArg("promotions", s.Promotions)
		t.close()
		// The chaos track appears only when the epoch saw fault activity, so
		// traces from uninjected runs stay byte-identical.
		if s.FaultsInjected != 0 || s.MigrationRetries != 0 || s.MigrationRollbacks != 0 || s.PagesQuarantined != 0 {
			t.open("chaos", 'C', ts, 0)
			t.args()
			t.uintArg("injected", s.FaultsInjected)
			t.uintArg("quarantined", s.PagesQuarantined)
			t.uintArg("retried", s.MigrationRetries)
			t.uintArg("rolled_back", s.MigrationRollbacks)
			t.close()
		}
	}

	if c.dropped > 0 {
		t.open("dropped_events", 'M', 0, 0)
		t.args()
		t.uintArg("count", c.dropped)
		t.close()
	}
	t.bw.WriteString("\n]\n")
	return t.bw.Flush()
}

// traceWriter appends one trace_event record at a time to b and hands each
// to bw whole. bw keeps the first write error, which Flush returns.
type traceWriter struct {
	bw      *bufio.Writer
	b       []byte
	records int
	// nargs counts the args written into the open args object, or is -1
	// while the record has none.
	nargs int
	// tiers is tierKeys' last answer.
	tiers []tierKey
}

// tierKey is one occupancy arg's key and the tier it names.
type tierKey struct {
	key  string
	tier int
}

// open starts a record with its name, then the fields every record has.
func (t *traceWriter) open(name string, ph byte, ts float64, tid int) {
	t.b = append(t.b, `{"name":`...)
	t.b = appendString(t.b, name)
	t.fields(ph, ts, tid)
}

// fields appends the phase, timestamp, pid and tid after the name.
func (t *traceWriter) fields(ph byte, ts float64, tid int) {
	t.b = append(t.b, `,"ph":"`...)
	t.b = append(t.b, ph)
	t.b = append(t.b, `","ts":`...)
	t.b = appendFloat(t.b, ts)
	t.b = append(t.b, `,"pid":1,"tid":`...)
	t.b = strconv.AppendInt(t.b, int64(tid), 10)
	t.nargs = -1
}

// args opens the record's args object, its last field.
func (t *traceWriter) args() {
	t.b = append(t.b, `,"args":{`...)
	t.nargs = 0
}

// key starts the next arg, a comma after the first: "k":. Keys go in raw,
// so every k is plain ASCII, and the caller writes args in sorted key
// order.
func (t *traceWriter) key(k string) {
	if t.nargs > 0 {
		t.b = append(t.b, ',')
	}
	t.nargs++
	t.b = append(t.b, '"')
	t.b = append(t.b, k...)
	t.b = append(t.b, `":`...)
}

func (t *traceWriter) uintArg(k string, v uint64) {
	t.key(k)
	t.b = strconv.AppendUint(t.b, v, 10)
}

func (t *traceWriter) intArg(k string, v int64) {
	t.key(k)
	t.b = strconv.AppendInt(t.b, v, 10)
}

func (t *traceWriter) boolArg(k string, v bool) {
	t.key(k)
	t.b = strconv.AppendBool(t.b, v)
}

func (t *traceWriter) stringArg(k, v string) {
	t.key(k)
	t.b = appendString(t.b, v)
}

// close ends the record, and its args if open, and writes it after the
// separator from the one before.
func (t *traceWriter) close() {
	if t.nargs >= 0 {
		t.b = append(t.b, '}')
	}
	t.b = append(t.b, '}')
	if t.records > 0 {
		t.bw.WriteString(",\n")
	}
	t.records++
	t.bw.Write(t.b)
	t.b = t.b[:0]
}

// instantArgs appends e's args in encoding/json's sorted key order.
func (t *traceWriter) instantArgs(e *Event) error {
	t.args()
	if e.Bytes != 0 {
		t.uintArg("bytes", e.Bytes)
	}
	if e.Kind == KindClassified {
		t.boolArg("cold", e.Cold)
	}
	if e.Count != 0 {
		t.uintArg("count", e.Count)
	}
	t.uintArg("epoch", e.Epoch)
	if e.Kind == KindMigrated {
		t.intArg("from_tier", int64(e.FromTier))
	}
	if e.Page != 0 {
		t.key("page")
		t.b = append(t.b, `"0x`...)
		t.b = appendHex12(t.b, uint64(e.Page))
		t.b = append(t.b, '"')
	}
	if e.Kind == KindChaosFault {
		t.boolArg("permanent", e.Permanent)
	}
	if e.Kind == KindClassified {
		if math.IsNaN(e.Rate) || math.IsInf(e.Rate, 0) {
			return fmt.Errorf("telemetry: %s event at %d ns has rate %v, which JSON cannot write", e.Kind, e.TimeNs, e.Rate)
		}
		t.key("rate")
		t.b = appendFloat(t.b, e.Rate)
	}
	if e.Kind == KindChaosFault {
		t.stringArg("site", chaos.Site(e.Site).String())
	}
	if e.Tenant != "" {
		t.stringArg("tenant", e.Tenant)
	}
	if e.Kind == KindMigrated {
		t.intArg("to_tier", int64(e.ToTier))
	}
	if e.Kind == KindPageSampled {
		t.boolArg("was_cold", e.Cold)
	}
	return nil
}

// tierKeys returns the occupancy keys of n tiers, tier0_bytes ..
// tier<n-1>_bytes, in the order encoding/json writes them, sorted as
// strings: tier10_bytes before tier2_bytes.
func (t *traceWriter) tierKeys(n int) []tierKey {
	if len(t.tiers) == n {
		return t.tiers
	}
	t.tiers = make([]tierKey, n)
	for i := range t.tiers {
		t.tiers[i] = tierKey{fmt.Sprintf("tier%d_bytes", i), i}
	}
	sort.Slice(t.tiers, func(i, j int) bool { return t.tiers[i].key < t.tiers[j].key })
	return t.tiers
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 on, with a one-digit
// negative exponent unpadded. f must be finite.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string the way encoding/json writes it.
// Printable ASCII without a quote, a backslash or one of the HTML
// characters it escapes (<, >, &) goes in as it is; anything else takes
// json.Marshal itself, so every escape stays exact.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendHex12 appends v in lower-case hex, zero-padded to 12 digits: the
// digits of addr.Virt's String after its 0x.
func appendHex12(b []byte, v uint64) []byte {
	const width = 12
	digits := 1
	for x := v >> 4; x != 0; x >>= 4 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 16)
}

// WriteJSONL writes one JSON object per retained epoch snapshot, oldest
// first — the metrics sink for offline analysis (jq, pandas). Each is the
// Snapshot as encoding/json writes it, in its field order and by its tags.
func (c *Collector) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	snaps := c.Snapshots()
	for i := range snaps {
		if err := enc.Encode(&snaps[i]); err != nil {
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
