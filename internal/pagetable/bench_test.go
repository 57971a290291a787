package pagetable

import (
	"testing"

	"thermostat/internal/addr"
)

// benchTable builds a table shaped like a mid-run machine: nHuge 2MB leaves
// with every splitEvery-th one split into 512 4KB children (the engine keeps
// ~5-10% of pages split for sampling at any instant).
func benchTable(b *testing.B, nHuge, splitEvery int) *Table {
	b.Helper()
	t := New()
	base := addr.Virt(1) << 40
	for i := 0; i < nHuge; i++ {
		v := base + addr.Virt(uint64(i)*addr.PageSize2M)
		p := addr.Phys(uint64(i) * addr.PageSize2M)
		if err := t.Map2M(v, p, Writable); err != nil {
			b.Fatal(err)
		}
	}
	if splitEvery > 0 {
		for i := 0; i < nHuge; i += splitEvery {
			v := base + addr.Virt(uint64(i)*addr.PageSize2M)
			if err := t.Split(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	return t
}

// benchShape names one benchTable shape for a sub-benchmark.
type benchShape struct {
	name              string
	nHuge, splitEvery int
}

// bigmemShape is the bigmem-scan end state — 16 GiB of huge pages with a
// tenth of them split, about 400k leaves — where a cost that grows with the
// footprint shows; the 512-page tables beside it are the scaled harness runs.
var bigmemShape = benchShape{"8192huge-10pct-split", 8192, 10}

// BenchmarkPTScan measures one full-table leaf scan — the operation every
// policy tick, kstaled pass, footprint classification, and telemetry epoch
// performs, usually several times per tick.
func BenchmarkPTScan(b *testing.B) {
	for _, sh := range []benchShape{{"512huge", 512, 16}, bigmemShape} {
		b.Run(sh.name, func(b *testing.B) {
			t := benchTable(b, sh.nHuge, sh.splitEvery)
			var leaves int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leaves = 0
				t.Scan(func(base addr.Virt, e *PTE, lvl Level) { leaves++ })
			}
			b.ReportMetric(float64(leaves), "leaves")
		})
	}
}

// BenchmarkPTScanRadix measures the same full scan through the radix-walk
// reference path, the oracle the slot index is checked against.
func BenchmarkPTScanRadix(b *testing.B) {
	t := benchTable(b, 512, 16)
	var leaves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaves = 0
		t.scanRadix(func(base addr.Virt, e *PTE, lvl Level) { leaves++ })
	}
	b.ReportMetric(float64(leaves), "leaves")
}

// BenchmarkPTScanRange measures scanning one split 2MB region's 512 children
// — the shape of the engine's per-sample pre-filter and restore passes.
func BenchmarkPTScanRange(b *testing.B) {
	t := benchTable(b, 512, 16)
	base := addr.Virt(1) << 40
	r := addr.NewRange(base, addr.PageSize2M)
	var leaves int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leaves = 0
		t.ScanRange(r, func(base addr.Virt, e *PTE, lvl Level) { leaves++ })
	}
	if leaves != addr.PagesPerHuge {
		b.Fatalf("scanned %d children, want %d", leaves, addr.PagesPerHuge)
	}
}

// BenchmarkPTSplitCollapse measures the sampling cycle's structural cost:
// split one huge page in the middle of the table and collapse it back. The
// cost must not depend on how many leaves the rest of the table holds.
func BenchmarkPTSplitCollapse(b *testing.B) {
	for _, sh := range []benchShape{{"512huge", 512, 0}, bigmemShape} {
		b.Run(sh.name, func(b *testing.B) {
			t := benchTable(b, sh.nHuge, sh.splitEvery)
			// An unsplit page near the middle (splitEvery divides neither).
			v := addr.Virt(1)<<40 + addr.Virt(uint64(sh.nHuge/2+1)*addr.PageSize2M)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.Split(v); err != nil {
					b.Fatal(err)
				}
				if err := t.Collapse(v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
