package telemetry

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand/v2"
	"testing"

	"thermostat/internal/addr"
)

// requireMarshalEqual fails unless WriteChromeTrace and WriteJSONL each
// match their oracle on c: both writers fail, or both succeed with the
// same bytes.
func requireMarshalEqual(t *testing.T, c *Collector) {
	t.Helper()
	for _, w := range []struct {
		name      string
		write     func(io.Writer) error
		reference func(*Collector, io.Writer) error
	}{
		{"WriteChromeTrace", c.WriteChromeTrace, refWriteChromeTrace},
		{"WriteJSONL", c.WriteJSONL, refWriteJSONL},
	} {
		var g, r bytes.Buffer
		gotErr, wantErr := w.write(&g), w.reference(c, &r)
		got, want := g.Bytes(), r.Bytes()
		switch {
		case (gotErr != nil) != (wantErr != nil):
			t.Fatalf("%s error %v, its json.Marshal oracle's error %v", w.name, gotErr, wantErr)
		case gotErr == nil && !bytes.Equal(got, want):
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s differs from its json.Marshal oracle at byte %d:\n got %q\nwant %q", w.name,
				i, got[max(0, i-60):min(len(got), i+60)], want[max(0, i-60):min(len(want), i+60)])
		}
	}
}

// daemonSizedCollector is a collector the size of a daemon run's: 60
// epochs of two tiers, about 210 access-path faults each, a few decision
// events, some of them a tenant's, and a chaos track in every fifth epoch.
func daemonSizedCollector() *Collector {
	r := rand.New(rand.NewPCG(1, 2))
	c := NewCollector()
	now := int64(0)
	for ep := uint64(1); ep <= 60; ep++ {
		start := now
		c.Event(Event{Kind: KindEpochStart, TimeNs: now, Epoch: ep})
		for i := 0; i < 210; i++ {
			now += r.Int64N(2_000_000)
			page := addr.Virt(1<<40 + r.Uint64N(1<<32)).Base4K()
			c.Event(Event{Kind: KindFaultInjected, TimeNs: now, Page: page, Count: 1})
		}
		for i := 0; i < 4; i++ {
			page := addr.Virt(1<<40 + r.Uint64N(1<<32)).Base2M()
			c.Event(Event{Kind: KindHugePageSplit, TimeNs: now, Page: page})
			c.Event(Event{Kind: KindPageSampled, TimeNs: now, Page: page, Cold: i%2 == 0})
			c.Event(Event{Kind: KindClassified, TimeNs: now, Page: page, Rate: r.Float64() * 1e4, Cold: i%3 == 0})
			c.Event(Event{Kind: KindMigrated, TimeNs: now, Page: page, FromTier: 0, ToTier: 1, Bytes: 2 << 20})
		}
		c.Event(Event{Kind: KindGrantChanged, TimeNs: now, Bytes: r.Uint64N(1 << 34), Tenant: "cassandra"})
		c.Event(Event{Kind: KindTLBMiss, TimeNs: now, Count: r.Uint64N(1 << 20)})
		c.Event(Event{Kind: KindEpochEnd, TimeNs: now})
		s := Snapshot{Epoch: ep, StartNs: start, EndNs: now,
			Accesses: r.Uint64N(1 << 24), SlowAccesses: r.Uint64N(1 << 16),
			TierOccupancy:  []uint64{r.Uint64N(1 << 34), r.Uint64N(1 << 34)},
			MigrationBytes: 8 << 20, Demotions: 4, Promotions: r.Uint64N(3)}
		if ep%5 == 0 {
			s.FaultsInjected, s.MigrationRetries = 2, 1
		}
		c.Snapshot(s)
	}
	return c
}

// TestChromeTraceMatchesMarshal pins WriteChromeTrace to the json.Marshal
// writer on the golden collector and on a daemon-sized one.
func TestChromeTraceMatchesMarshal(t *testing.T) {
	requireMarshalEqual(t, syntheticCollector())
	requireMarshalEqual(t, daemonSizedCollector())
}

// fuzzDecoder reads a fuzz input as a collector's contents; past the end
// of the input every read is zero.
type fuzzDecoder struct{ b []byte }

func (d *fuzzDecoder) u8() byte {
	if len(d.b) == 0 {
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *fuzzDecoder) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], d.b)
	d.b = d.b[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

// specialRates are the rates whose JSON form is on an edge: zero of both
// signs, the 'e' form's cutoffs, the smallest subnormal, and the values
// JSON cannot write.
var specialRates = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 5e-324, 12.5,
	math.NaN(), math.Inf(1), math.Inf(-1), -1e-7, -1e21}

// rate is a special rate for a selector byte below 2·len(specialRates),
// else any float64 from the next eight bytes.
func (d *fuzzDecoder) rate() float64 {
	if sel := int(d.u8()); sel < 2*len(specialRates) {
		return specialRates[sel%len(specialRates)]
	}
	return math.Float64frombits(d.u64())
}

// scaled is a byte shifted left by a second byte: any magnitude, and zero
// one time in 256.
func (d *fuzzDecoder) scaled() uint64 { return uint64(d.u8()) << (d.u8() % 64) }

// collectorFromBytes decodes a fuzz input into a collector: a header byte
// of bounds, then records, each an event (an even tag) or a snapshot (an
// odd one) of 0 to 12 tiers with every field set: each Counters row, each
// gauge and each confusion cell.
func collectorFromBytes(data []byte) *Collector {
	d := &fuzzDecoder{data}
	h := d.u8()
	c := NewCollectorWith(Config{MaxEvents: 1 + int(h&63), MaxSnapshots: 1 + int(h>>6)*3})
	for len(d.b) > 0 {
		tag := d.u8()
		if tag&1 == 0 {
			flags := d.u8()
			e := Event{Kind: Kind(int(tag>>1) % (int(nKinds) + 1)), TimeNs: int64(d.u64()), Epoch: uint64(d.u8())}
			if flags&1 != 0 {
				e.Page = addr.Virt(d.u64())
			}
			if flags&2 != 0 {
				e.Bytes = d.u64()
			}
			if flags&4 != 0 {
				e.Count = uint64(d.u8())
			}
			e.FromTier, e.ToTier = int8(d.u8()), int8(d.u8())
			e.Cold, e.Permanent = flags&8 != 0, flags&16 != 0
			e.Site = d.u8() % 8
			if e.Kind == KindClassified {
				e.Rate = d.rate()
			}
			if flags&32 != 0 {
				n := int(d.u8() % 16)
				n = min(n, len(d.b))
				e.Tenant, d.b = string(d.b[:n]), d.b[n:]
			}
			c.Event(e)
			continue
		}
		s := Snapshot{Epoch: uint64(d.u8()), StartNs: int64(d.u64()), EndNs: int64(d.u64())}
		tiers := int(tag>>1) % 13
		s.TierAccesses, s.TierOccupancy = make([]uint64, tiers), make([]uint64, tiers)
		for i := 0; i < tiers; i++ {
			s.TierAccesses[i], s.TierOccupancy[i] = uint64(d.u8()), d.scaled()
		}
		for _, row := range Counters {
			*row.Of(&s) = d.scaled()
		}
		s.PoisonedPages, s.ColdBytes, s.HotBytes = d.scaled(), d.scaled(), d.scaled()
		s.ConfusionValid = d.u8()&1 != 0
		s.ColdIdle, s.ColdAccessed = uint64(d.u8()), uint64(d.u8())
		s.HotIdle, s.HotAccessed = uint64(d.u8()), uint64(d.u8())
		c.Snapshot(s)
	}
	return c
}

// fuzzEvent encodes one event record for collectorFromBytes; rateSel is
// the rate selector byte (a special rate below 2·len(specialRates)).
func fuzzEvent(k Kind, flags byte, page addr.Virt, rateSel byte, tenant string) []byte {
	b := []byte{byte(k) << 1, flags}
	b = binary.LittleEndian.AppendUint64(b, 123456789) // TimeNs
	b = append(b, 7)                                   // Epoch
	if flags&1 != 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(page))
	}
	if flags&2 != 0 {
		b = binary.LittleEndian.AppendUint64(b, 2<<20)
	}
	if flags&4 != 0 {
		b = append(b, 3)
	}
	b = append(b, 0, 1, 2) // FromTier, ToTier, Site
	if k == KindClassified {
		b = append(b, rateSel)
	}
	if flags&32 != 0 {
		b = append(b, byte(len(tenant)))
		b = append(b, tenant...)
	}
	return b
}

// fuzzSnapshot encodes one snapshot record of tiers tiers. Its counters
// and gauges are seed times their index, so a zero seed makes them all
// zero (no chaos track, every omitempty key left out), and an odd seed
// makes the confusion matrix valid.
func fuzzSnapshot(tiers int, seed byte) []byte {
	b := []byte{byte(tiers)<<1 | 1, 9}
	b = binary.LittleEndian.AppendUint64(b, 500_000_000)   // StartNs
	b = binary.LittleEndian.AppendUint64(b, 1_500_000_000) // EndNs
	for i := 0; i < tiers; i++ {
		b = append(b, byte(i)*seed, byte(i+1), byte(20+i))
	}
	for i := 0; i < len(Counters)+3; i++ {
		b = append(b, byte(i+1)*seed, byte(3*i))
	}
	return append(b, seed, seed, 2*seed, 3*seed, 4*seed)
}

// fuzzSeeds are the inputs FuzzChromeTraceVsMarshal starts from: every
// kind, with and without drops, tenants that need escaping, each special
// rate, 1 to 12 tiers.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	all := []byte{0xff}
	for k := Kind(0); k <= nKinds; k++ {
		all = append(all, fuzzEvent(k, 0x3f, addr.Virt(2<<20+4096), 7, "t")...)
	}
	seeds = append(seeds, append(all, fuzzSnapshot(2, 0)...))
	// A one-event cap: every event after the first is dropped and counted.
	seeds = append(seeds, append([]byte{0}, all[1:]...))
	for _, tenant := range []string{"a<b>&c", "line\u2028sep\u2029", "ctl\x00\x01\x1f\t\n", "bad\xff\xfeutf8", `q"\`, "é\x7f"} {
		seeds = append(seeds, append([]byte{0xff}, fuzzEvent(KindTenantArrived, 0x22, 0, 0, tenant)...))
	}
	for sel := range specialRates {
		seeds = append(seeds, append([]byte{0xff}, fuzzEvent(KindClassified, 0x09, addr.Virt(1<<40), byte(sel), "")...))
	}
	for tiers := 1; tiers <= 12; tiers++ {
		seeds = append(seeds, append([]byte{0xff}, fuzzSnapshot(tiers, byte(tiers*37))...))
	}
	return seeds
}

// FuzzChromeTraceVsMarshal decodes the input into a collector of events of
// every kind and snapshots of 0 to 12 tiers, and requires WriteChromeTrace
// to give the json.Marshal writer's bytes, or to fail where it fails.
func FuzzChromeTraceVsMarshal(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireMarshalEqual(t, collectorFromBytes(data))
	})
}

// BenchmarkWriteChromeTrace writes a daemon-sized collector's trace, by
// hand and through the json.Marshal oracle.
func BenchmarkWriteChromeTrace(b *testing.B) {
	c := daemonSizedCollector()
	for _, w := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"hand", c.WriteChromeTrace},
		{"marshal", func(w io.Writer) error { return refWriteChromeTrace(c, w) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.write(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
