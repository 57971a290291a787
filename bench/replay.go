package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"thermostat/internal/addr"
	"thermostat/internal/cgroup"
	"thermostat/internal/daemon"
	"thermostat/internal/fault"
	"thermostat/internal/fleet"
	"thermostat/internal/kstaled"
	"thermostat/internal/mem"
	"thermostat/internal/obsv"
	"thermostat/internal/pagetable"
	"thermostat/internal/rng"
	"thermostat/internal/sim"
	"thermostat/internal/telemetry"
	"thermostat/internal/walk"
)

// sink keeps replayed calls' results alive so the compiler keeps the calls.
var sink uint64

// firstError remembers the first error a replay's loops ran into; the loops
// themselves keep going, so one failure costs one metric, not all of them.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// perCall times n calls of fn and returns nanoseconds per call (0 for n == 0).
func perCall(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// replayVictims bounds how many pages the structural replays (split, poison,
// migrate) exercise.
const replayVictims = 64

// replayMachine times each leaf package's hot function in a tight loop over
// the request stream the traced run captured, against the state that run
// left behind. It mutates the machine; nothing reads the run's results from
// it afterwards.
func replayMachine(pl map[string]float64, m *sim.Machine, reqs []sim.Req) error {
	pt, tl, vpid := m.PageTable(), m.TLB(), m.VPID()

	// Translate the stream once, outside every timed loop. Requests to memory
	// that has since been unmapped (a departed tenant's) are dropped.
	type xlat struct {
		v     addr.Virt
		write bool
		lvl   pagetable.Level
		frame addr.Phys
		pa    addr.Phys
	}
	xs := make([]xlat, 0, len(reqs))
	for _, rq := range reqs {
		e, lvl, ok := pt.Lookup(rq.V)
		if !ok {
			continue
		}
		off := rq.V.Offset4K()
		if lvl == pagetable.Level2M {
			off = rq.V.Offset2M()
		}
		xs = append(xs, xlat{rq.V, rq.Write, lvl, e.Frame, e.Frame + addr.Phys(off)})
	}
	if len(xs) == 0 {
		return fmt.Errorf("no replayable requests among %d captured", len(reqs))
	}
	n := len(xs)

	pl["tlb.lookup_ns"] = perCall(n, func(i int) {
		if _, ok := tl.Lookup(xs[i].v, vpid); ok {
			sink++
		}
	})
	pl["tlb.insert_ns"] = perCall(n, func(i int) { tl.Insert(xs[i].v, xs[i].lvl, xs[i].frame, vpid) })
	pl["pagetable.walk_ns"] = perCall(n, func(i int) { sink += uint64(pt.Walk(xs[i].v, xs[i].write).Depth) })
	wm, err := walk.NewModel(m.Config().Walk)
	if err != nil {
		return err
	}
	nested, hostDepth := m.Guest().Nested(), m.Guest().HostWalkDepth()
	pl["walk.latency_ns"] = perCall(n, func(i int) { sink += uint64(wm.Latency(nested, 1+i&3, hostDepth)) })
	pl["cache.access_ns"] = perCall(n, func(i int) {
		if m.LLC().Access(xs[i].pa) {
			sink++
		}
	})

	// Whole-table scans: enough passes to time at least ~100k regions.
	regions := pt.RegionCount()
	passes := 1 + 100_000/regions
	pl["pagetable.scan_ns_per_region"] = perCall(passes, func(int) {
		pt.ScanRegions(func(_ addr.Virt, pages int, _ *pagetable.Entry, _ pagetable.Level) { sink += uint64(pages) })
	}) / float64(regions)
	scanner := kstaled.New(pt, tl, vpid, 0)
	pl["kstaled.scan_ns_per_region"] = perCall(passes, func(int) { sink += uint64(scanner.Scan().Scanned) }) / float64(regions)

	// Structural replays need pages in a known state: unpoisoned huge leaves
	// (and native 4 KB leaves) resident in the top tier.
	sys := m.Memory()
	var huge, small []addr.Virt
	pt.ScanRegions(func(base addr.Virt, pages int, e *pagetable.Entry, lvl pagetable.Level) {
		if pages != 1 || e.Flags.Has(pagetable.Poisoned) || sys.TierOf(e.Frame) != mem.Fast {
			return
		}
		switch {
		case lvl == pagetable.Level2M && len(huge) < replayVictims:
			huge = append(huge, base)
		case lvl == pagetable.Level4K && !e.Flags.Has(pagetable.SplitSampled) && len(small) < replayVictims:
			small = append(small, base)
		}
	})

	const rounds = 16
	var first firstError
	note := first.note
	fast := sys.Tier(mem.Fast)
	if fast.Free() >= addr.PageSize2M {
		pl["mem.alloc_free_ns"] = perCall(rounds*replayVictims, func(int) {
			p, err := fast.Alloc2M()
			note(err)
			if err == nil {
				fast.Free2M(p)
			}
		})
	}
	trap := m.Trap()
	pl["badgertrap.poison_unpoison_ns"] = perCall(rounds*len(huge), func(i int) {
		v := huge[i%len(huge)]
		note(trap.Poison(v, vpid))
		note(trap.Unpoison(v))
	})
	for _, v := range huge {
		note(trap.Poison(v, vpid))
	}
	pl["badgertrap.handle_ns"] = perCall(rounds*rounds*len(huge), func(i int) {
		v := huge[i%len(huge)] + addr.Virt(uint64(i%addr.PagesPerHuge)*addr.PageSize4K)
		lat, err := trap.Handle(fault.Fault{Kind: fault.Poison, Virt: v, VPID: vpid})
		note(err)
		sink += uint64(lat)
	})
	for _, v := range huge {
		note(trap.Unpoison(v))
	}
	pl["pagetable.split_collapse_us"] = perCall(len(huge), func(i int) {
		note(pt.Split(huge[i]))
		note(pt.Collapse(huge[i]))
	}) / 1e3

	// Migration: one demotion and one promotion per victim, through the
	// machine so poisoning and TLB shootdown are included as in a real move.
	moved := min(len(huge), int(sys.Tier(mem.Fast+1).Free()/addr.PageSize2M))
	pl["numa.move_huge_us"] = perCall(moved, func(i int) {
		_, err := m.Demote(huge[i])
		note(err)
		_, err = m.Promote(huge[i])
		note(err)
	}) / 2 / 1e3
	bottom := sys.Bottom()
	pl["numa.move_4k_us"] = perCall(len(small), func(i int) {
		_, err := m.Migrator().Move4K(small[i], bottom, vpid, mem.Demotion)
		note(err)
		_, err = m.Migrator().Move4K(small[i], mem.Fast, vpid, mem.Promotion)
		note(err)
	}) / 2 / 1e3
	return first.err
}

// daemonYAML is daemon-restore's configuration in the daemon's YAML subset,
// decoded next to the JSON form.
const daemonYAML = `# bench: daemon-restore
app: cassandra
policy: thermostat
scale: tiny
slowdown_pct: 3
duration_s: 8
seed: 1
telemetry:
  trace: trace.json
  metrics: metrics.jsonl
daemon:
  checkpoint_path: daemon.ckpt
  checkpoint_every_epochs: 4
`

// replayStandalone times the layers that need no finished machine, on
// fixed-size synthetic inputs, so the numbers mean the same on every
// workload.
func replayStandalone(pl map[string]float64, seed uint64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	z := rng.NewZipfian(rng.New(seed), 1<<16, rng.YCSBTheta)
	pl["rng.zipf_ns"] = perCall(1<<18, func(int) { sink += z.Next() })

	// Telemetry: 64k decision events over 64 epochs into a default-bounded
	// collector, then both exports.
	const events, epochs = 1 << 16, 64
	col := telemetry.NewCollector()
	kinds := []telemetry.Kind{telemetry.KindFaultInjected, telemetry.KindClassified,
		telemetry.KindMigrated, telemetry.KindPageSampled}
	pl["telemetry.event_ns"] = perCall(events, func(i int) {
		col.Event(telemetry.Event{Kind: kinds[i&3], TimeNs: int64(i) * 1000,
			Page: addr.Virt(uint64(i%4096) * addr.PageSize2M), Bytes: addr.PageSize2M, Count: 1, Rate: float64(i & 255), ToTier: 1})
	})
	snap := func(i int) telemetry.Snapshot {
		return telemetry.Snapshot{Epoch: uint64(i + 1), StartNs: int64(i) * 1e9, EndNs: int64(i+1) * 1e9,
			Accesses: 1 << 20, SlowAccesses: 1 << 10, TierAccesses: []uint64{1<<20 - 1<<10, 1 << 10},
			TierOccupancy: []uint64{1 << 30, 1 << 28}, TLBMisses: 1 << 18, LLCMisses: 1 << 17,
			PoisonFaults: 1 << 12, MigrationBytes: 16 << 20, Demotions: 6, Promotions: 2,
			ColdBytes: 1 << 28, HotBytes: 1 << 30}
	}
	pl["telemetry.snapshot_us"] = perCall(epochs, func(i int) { col.Snapshot(snap(i)) }) / 1e3
	var first firstError
	note := first.note
	pl["telemetry.export_trace_ms"] = perCall(1, func(int) { note(col.WriteChromeTrace(io.Discard)) }) / 1e6
	pl["telemetry.export_jsonl_ms"] = perCall(4, func(int) { note(col.WriteJSONL(io.Discard)) }) / 1e6

	// Observability plane: the same epochs mirrored into a publisher, then
	// Prometheus encode → strict parse.
	pub := obsv.NewPublisher()
	rec := pub.Recorder("bench", nil)
	for i := 0; i < epochs; i++ {
		rec.Event(telemetry.Event{Kind: telemetry.KindEpochStart, Epoch: uint64(i + 1), TimeNs: int64(i) * 1e9})
		rec.Snapshot(snap(i))
	}
	var buf bytes.Buffer
	pl["obsv.encode_us"] = perCall(64, func(int) {
		buf.Reset()
		note(pub.WriteMetrics(&buf))
	}) / 1e3
	pl["obsv.parse_us"] = perCall(64, func(int) {
		fams, err := obsv.ParseProm(bytes.NewReader(buf.Bytes()))
		note(err)
		pl["obsv.families"] = float64(len(fams))
	}) / 1e3

	// Daemon: config decode (JSON and YAML forms of daemon-restore's config)
	// and the checkpoint file round trip.
	docs := [][]byte{daemonConfig(env{seed: seed}, "").Encode(), []byte(daemonYAML)}
	pl["daemon.config_decode_us"] = perCall(256, func(i int) {
		_, err := daemon.Decode(docs[i&1])
		note(err)
	}) / 1e3
	cfg, err := daemon.Decode(docs[0])
	if err != nil {
		return err
	}
	cp := &daemon.Checkpoint{Version: 1, SavedAtEpoch: 12, VirtualNs: 48e8, Digest: "0123456789abcdef", Config: cfg}
	path := filepath.Join(dir, "replay.ckpt")
	pl["daemon.checkpoint_write_ms"] = perCall(16, func(int) { note(daemon.WriteCheckpoint(path, cp)) }) / 1e6
	pl["daemon.checkpoint_read_ms"] = perCall(16, func(int) {
		got, err := daemon.ReadCheckpoint(path)
		note(err)
		if err == nil && got == nil {
			note(fmt.Errorf("checkpoint %s vanished", path))
		}
	}) / 1e6

	// Fleet control plane: one arbitration round at 4 and at 64 tenants, and
	// the cgroup charge a migration pays.
	for _, n := range []int{4, 64} {
		ds := make([]fleet.Demand, n)
		for i := range ds {
			ds[i] = fleet.Demand{Name: fmt.Sprint("t", i), Priority: 1 + i%3, FloorBytes: 8 << 20,
				DemandBytes: uint64(64+i) << 20, SlowdownPct: float64(i % 7), SLOPct: 3}
		}
		pl[fmt.Sprintf("fleet.arbitrate%d_us", n)] = perCall(4096/n, func(int) {
			g, err := fleet.Arbitrate(uint64(n)<<26, ds)
			note(err)
			sink += uint64(len(g))
		}) / 1e3
	}
	root, err := cgroup.NewGroup("bench", cgroup.Default())
	if err != nil {
		return err
	}
	child, err := root.NewChild("tenant", cgroup.Default())
	if err != nil {
		return err
	}
	root.SetLimit(1 << 40)
	pl["cgroup.charge_ns"] = perCall(1<<16, func(int) {
		note(child.TryCharge(addr.PageSize2M))
		child.Uncharge(addr.PageSize2M)
	})
	return first.err
}

// exportFlush writes a collector's two exports to disk the way the daemon's
// flush path does and returns the milliseconds it took.
func exportFlush(col *telemetry.Collector, dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	for name, write := range map[string]func(io.Writer) error{
		"trace.json": col.WriteChromeTrace, "metrics.jsonl": col.WriteJSONL,
	} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		if err := write(f); err != nil {
			f.Close()
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e6, nil
}
