package workload

const (
	kib = 1 << 10
	mib = 1 << 20
	gib = 1 << 30
)

// Mix selects the YCSB read/write ratio the paper evaluates for the NoSQL
// stores (§4.3): 95:5 read-heavy or 5:95 write-heavy.
type Mix int

// Traffic mixes.
const (
	// ReadHeavy is the 95:5 read/write load.
	ReadHeavy Mix = iota
	// WriteHeavy is the 5:95 read/write load.
	WriteHeavy
)

func (m Mix) writeFrac() float64 {
	if m == WriteHeavy {
		return 0.95
	}
	return 0.05
}

// String names the mix.
func (m Mix) String() string {
	if m == WriteHeavy {
		return "write-heavy"
	}
	return "read-heavy"
}

// defaultScale is the footprint divisor the experiments are calibrated at:
// Table 2's gigabyte footprints become tens-to-hundreds of megabytes, with
// the TLB and LLC scaled by the same factor (see harness.ScaledMachine).
const defaultScale = 16

// Aerospike models the multi-threaded key-value store: a hot primary index,
// a large uniformly-warm data area (Zipfian keys hash-spread over fixed-size
// slabs), a lukewarm band, a mostly-idle slab-allocator reserve, and a tiny
// file mapping. RSS 12.3GB + 5MB file (Table 2); ~15% ends up cold (§5,
// Figure 7).
func Aerospike(mix Mix) Spec {
	wf := mix.writeFrac()
	return Spec{
		Name:      "aerospike",
		ComputeNs: 3000,
		Segments: []SegmentSpec{
			{Name: "index", Bytes: 18 * gib / 10, Weight: 0.30, Picker: &Zipf{}, WriteFrac: wf * 0.5},
			{Name: "data-hot", Bytes: 45 * gib / 10, Weight: 0.573, Picker: Uniform{}, WriteFrac: wf},
			// Lukewarm: per-2MB-page rates sit between the 3% and 10%
			// admission budgets at repro scale, so the movable fraction
			// grows with the slowdown knob (Figure 11).
			{Name: "data-warm", Bytes: 42 * gib / 10, Weight: 0.122, Picker: Uniform{}, WriteFrac: wf},
			{Name: "slab-idle", Bytes: 18 * gib / 10, Weight: 0.004, Picker: &Sweep{Dwell: defaultScale}},
			{Name: "config-file", Bytes: 5 * mib, Weight: 0.001, Picker: Uniform{}, FileMapped: true},
		},
	}
}

// Cassandra models the wide-column store under its write-dominated load: a
// growing in-memory Memtable that is periodically "flushed" (the chunk
// retires into a rarely-read SSTable-cache segment — the paper observes no
// compaction shrink in its window), Zipfian row reads, and a large
// hugetmpfs page-cache split between recent (hot) and compacted (cold)
// SSTables. RSS 8GB + 4GB file (Table 2); 40-50% cold (Figure 5).
func Cassandra(mix Mix) Spec {
	wf := mix.writeFrac()
	return Spec{
		Name:      "cassandra",
		ComputeNs: 2500,
		Segments: []SegmentSpec{
			{Name: "memtable", Bytes: 5 * gib / 10, Weight: 0.40, Picker: Uniform{}, WriteFrac: wf},
			{Name: "flushed", Bytes: 25 * gib / 10, Weight: 0.01, Picker: &Sweep{Dwell: defaultScale}},
			{Name: "row-hot", Bytes: 25 * gib / 10, Weight: 0.30, Picker: &Zipf{}, WriteFrac: 0.1},
			{Name: "heap-work", Bytes: 25 * gib / 10, Weight: 0.20, Picker: Uniform{}, WriteFrac: 0.3},
			{Name: "sstable-recent", Bytes: 1 * gib, Weight: 0.088, Picker: &Zipf{}, FileMapped: true},
			{Name: "sstable-cold", Bytes: 3 * gib, Weight: 0.002, Picker: &Sweep{Dwell: defaultScale}, FileMapped: true},
		},
		Growth: &GrowthSpec{
			PeriodNs:      20e9,
			ChunkBytes:    5 * gib / 10,
			MaxChunks:     6,
			ActiveSegment: "memtable",
			RetireSegment: "flushed",
		},
	}
}

// MySQLTPCC models the OLTP database: the huge, rarely-read LINEITEM table
// dominating the cold footprint, a lukewarm old-orders band, hot tables and
// indexes with Zipfian skew, and a hugetmpfs page cache split between the
// active buffer pool files and archived logs. RSS 6GB + 3.5GB file
// (Table 2); 40-50% cold, saturating near 45% regardless of slowdown
// budget because every remaining page is hot (Figures 6 and 11).
func MySQLTPCC() Spec {
	return Spec{
		Name:      "mysql-tpcc",
		ComputeNs: 2500,
		Segments: []SegmentSpec{
			{Name: "lineitem", Bytes: 38 * gib / 10, Weight: 0.002, Picker: &Sweep{Dwell: defaultScale}},
			// Lukewarm band: admitted only at 6%+ targets (Figure 11's
			// partial scaling before TPCC saturates).
			{Name: "orders-old", Bytes: 7 * gib / 10, Weight: 0.018, Picker: Uniform{}},
			{Name: "hot-tables", Bytes: 1 * gib, Weight: 0.40, Picker: &Zipf{}, WriteFrac: 0.3},
			{Name: "index", Bytes: 5 * gib / 10, Weight: 0.35, Picker: &Zipf{}, WriteFrac: 0.1},
			{Name: "bufferpool-files", Bytes: 25 * gib / 10, Weight: 0.225, Picker: &Zipf{}, WriteFrac: 0.2, FileMapped: true},
			{Name: "log-archive", Bytes: 1 * gib, Weight: 0.003, Picker: &Sweep{Dwell: defaultScale}, FileMapped: true},
		},
	}
}

// Redis models the single-threaded key-value store under the paper's
// hotspot load: 0.01% of keys receive 90% of traffic, while active-expiry
// and rehash passes sweep the entire 17.2GB hash table at a low per-page
// rate. The sweep is what defeats idle-bit placement (>10% degradation,
// Figure 1's caption) while Thermostat's rate estimates correctly cap the
// movable fraction near 10% (Figure 8).
func Redis() Spec {
	return Spec{
		Name:      "redis",
		ComputeNs: 1200,
		Segments: []SegmentSpec{
			{
				Name:   "keyspace",
				Bytes:  172 * gib / 10,
				Weight: 0.9995,
				// HotSetFrac 0.4% of 4KB pages hash-scattered leaves
				// ~13% of 2MB pages hot-key-free (1-e^(-0.004*512) per
				// page) — the movable minority behind Figure 8's ~10%.
				// Dwell 6x the scale divisor: the expiry/rehash pass
				// revisits the whole keyspace every ~90s rather than
				// continuously, so hot-key-free pages do idle across a
				// 10s window (Figure 1) even though their average rate
				// caps the movable fraction near 10% (Figure 8).
				// The hot key set re-scatters every ~2 paper-minutes:
				// popularity drifts, so idle-looking pages regain hot
				// keys — the trap naive idle-bit placement falls into.
				Picker: &HotspotSweep{
					HotSetFrac:     0.004,
					HotOpFrac:      0.90,
					Dwell:          6 * defaultScale,
					RotatePeriodNs: 120e9,
				},
				WriteFrac: 0.1,
			},
			{Name: "config-file", Bytes: 1 * mib, Weight: 0.0005, Picker: Uniform{}, FileMapped: true},
		},
	}
}

// InMemAnalytics models the CloudSuite Spark collaborative-filtering job:
// iterative full scans over the ratings matrix, a hot model/working set,
// and shuffle spill that accumulates over the run and goes cold — so the
// cold fraction grows with time (Figure 9). RSS 6.2GB + 1MB file (Table 2);
// 15-20% cold.
func InMemAnalytics() Spec {
	return Spec{
		Name:      "in-memory-analytics",
		ComputeNs: 2000,
		Segments: []SegmentSpec{
			{Name: "ratings", Bytes: 3 * gib, Weight: 0.45, Picker: &StridedScan{Stride: 97}},
			{Name: "model", Bytes: 17 * gib / 10, Weight: 0.50, Picker: &Zipf{}, WriteFrac: 0.5},
			{Name: "spill", Bytes: 5 * gib / 10, Weight: 0.004, Picker: &Sweep{Dwell: defaultScale}},
			{Name: "spill-active", Bytes: 1 * gib, Weight: 0.045, Picker: Uniform{}, WriteFrac: 0.8},
			{Name: "jar-file", Bytes: 1 * mib, Weight: 0.0005, Picker: Uniform{}, FileMapped: true},
		},
		Growth: &GrowthSpec{
			PeriodNs:      15e9,
			ChunkBytes:    4 * gib / 10,
			MaxChunks:     3,
			ActiveSegment: "spill-active",
			RetireSegment: "spill",
		},
	}
}

// WebSearch models the Apache Solr node: hot term dictionaries, Zipfian
// posting-list reads, and a large rarely-touched rare-term region. The
// paper observes ~40% cold with under 1% throughput loss and no p99 impact
// (Figure 10), and no measurable huge-page benefit (Table 1) thanks to the
// small, cache-friendly hot set. RSS 2.28GB + 86MB file (Table 2).
func WebSearch() Spec {
	return Spec{
		Name:      "web-search",
		ComputeNs: 6000,
		Segments: []SegmentSpec{
			{Name: "dictionary", Bytes: 5 * gib / 10, Weight: 0.45, Picker: &Zipf{}},
			{Name: "postings-hot", Bytes: 9 * gib / 10, Weight: 0.50, Picker: &Zipf{}},
			{Name: "postings-rare", Bytes: 88 * gib / 100, Weight: 0.004, Picker: &Sweep{Dwell: defaultScale}},
			{Name: "index-files", Bytes: 86 * mib, Weight: 0.046, Picker: &Zipf{}, FileMapped: true},
		},
	}
}

// ScaleSynthetic models the scaling benchmark's workload: a small Zipfian
// hot set and a warm band in front of a vast, almost-never-touched cold
// reserve — the footprint shape (a few percent hot, the rest idle) where
// region-grain state pays off. The spec totals 1 GiB unscaled; the scaling
// sweep stretches it with WithFootprint, which preserves these shares, so
// the hot set grows with the footprint while the cold reserve stays ~95%.
// It is deliberately not part of All: the paper experiments iterate the six
// evaluated applications only.
func ScaleSynthetic() Spec {
	return Spec{
		Name:      "scale-synth",
		ComputeNs: 2000,
		Segments: []SegmentSpec{
			{Name: "hot", Bytes: 2 * gib / 100, Weight: 0.90, Picker: &Zipf{}, WriteFrac: 0.2},
			{Name: "warm", Bytes: 3 * gib / 100, Weight: 0.098, Picker: Uniform{}, WriteFrac: 0.1},
			{Name: "cold", Bytes: 95 * gib / 100, Weight: 0.002, Picker: &Sweep{Dwell: defaultScale}},
		},
	}
}

// All returns the six evaluated applications with the mixes the paper's
// footprint figures use (Aerospike read-heavy, Cassandra write-heavy).
func All() []Spec {
	return []Spec{
		Aerospike(ReadHeavy),
		Cassandra(WriteHeavy),
		InMemAnalytics(),
		MySQLTPCC(),
		Redis(),
		WebSearch(),
	}
}

// variants are the names ByName accepts beyond the six in All: the explicit
// mix spellings of the NoSQL stores and the synthetic scaling workload.
var variants = []struct {
	name string
	spec func() Spec
}{
	{"aerospike-read-heavy", func() Spec { return Aerospike(ReadHeavy) }},
	{"aerospike-write-heavy", func() Spec { return Aerospike(WriteHeavy) }},
	{"cassandra-read-heavy", func() Spec { return Cassandra(ReadHeavy) }},
	{"cassandra-write-heavy", func() Spec { return Cassandra(WriteHeavy) }},
	{"scale-synth", ScaleSynthetic},
}

// Names returns every application name ByName accepts: the six of All, then
// the variants.
func Names() []string {
	var names []string
	for _, s := range All() {
		names = append(names, s.Name)
	}
	for _, v := range variants {
		names = append(names, v.name)
	}
	return names
}

// ByName returns the spec for an application name. The NoSQL stores accept
// "-read-heavy" / "-write-heavy" suffixes to select the mix; bare names get
// the default mixes from All.
func ByName(name string) (Spec, bool) {
	for _, v := range variants {
		if v.name == name {
			return v.spec(), true
		}
	}
	for _, s := range All() {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
