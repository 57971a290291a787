package sim

import (
	"errors"
	"fmt"

	"thermostat/internal/addr"
	"thermostat/internal/pagetable"
	"thermostat/internal/stats"
)

// ErrStopRun, returned by a RunConfig.TickHook, stops the run cleanly at
// the current policy-tick boundary: Run finishes its bookkeeping and
// returns the partial result with a nil error, exactly as if the duration
// had elapsed. The daemon's graceful-stop and halt paths use it.
var ErrStopRun = errors.New("sim: run stopped at tick boundary")

// App is a workload model: it allocates its footprint on Init and then
// produces an access stream. Apps are closed-loop: the runner issues the
// next access as soon as the previous completes.
type App interface {
	// Name identifies the application.
	Name() string
	// Init allocates and maps the app's memory on the machine.
	Init(m *Machine) error
	// Next returns the next access: virtual address and whether it is a
	// store.
	Next() (v addr.Virt, write bool)
	// ComputeNs is the fixed computation time between accesses (per op).
	ComputeNs() int64
	// Tick runs app phase behaviour (footprint growth, phase changes) and
	// is called at every policy interval boundary.
	Tick(m *Machine, nowNs int64) error
}

// BatchApp is the optional fast path an App can provide: NextBatch must
// fill reqs with exactly the accesses len(reqs) successive Next calls would
// produce (same addresses, same write bits, same RNG consumption) and
// return how many it generated — len(reqs) unless the app has a reason to
// stop short. The runner falls back to per-op Next when the count is 0.
type BatchApp interface {
	App
	NextBatch(reqs []Req) int
}

// TierBytes is one tier's share of a footprint, by mapping grain.
type TierBytes struct {
	Bytes2M uint64
	Bytes4K uint64
}

// Total returns the tier's mapped bytes.
func (t TierBytes) Total() uint64 { return t.Bytes2M + t.Bytes4K }

// Footprint classifies the app's mapped bytes for the paper's
// footprint-over-time figures. Hot is the top (fast) tier; Cold aggregates
// every lower tier of the hierarchy.
type Footprint struct {
	Hot2M  uint64
	Hot4K  uint64
	Cold2M uint64
	Cold4K uint64
	// ByTier, when populated (ScanFootprint does), breaks mapped bytes
	// down per tier, indexed by mem.TierID. Nil for policies that only
	// track the hot/cold binary.
	ByTier []TierBytes
}

// Total returns all mapped bytes.
func (f Footprint) Total() uint64 { return f.Hot2M + f.Hot4K + f.Cold2M + f.Cold4K }

// Cold returns cold (non-top-tier) bytes.
func (f Footprint) Cold() uint64 { return f.Cold2M + f.Cold4K }

// ColdFraction returns cold/total (0 when empty).
func (f Footprint) ColdFraction() float64 {
	t := f.Total()
	if t == 0 {
		return 0
	}
	return float64(f.Cold()) / float64(t)
}

// Policy is a page-placement policy driven at a fixed interval.
type Policy interface {
	// Name identifies the policy.
	Name() string
	// Attach binds the policy to a machine after the app is initialized.
	Attach(m *Machine) error
	// IntervalNs is the policy's tick period (the scan interval).
	IntervalNs() int64
	// Tick runs one policy interval (sample, classify, migrate).
	Tick(m *Machine, nowNs int64) error
	// Footprint reports the current hot/cold classification.
	Footprint(m *Machine) Footprint
}

// NullPolicy leaves everything in fast memory: the all-DRAM baseline.
type NullPolicy struct {
	// Interval controls tick cadence (only observable in footprint
	// sampling); defaults to 1s.
	Interval int64
}

// Name implements Policy.
func (NullPolicy) Name() string { return "all-dram" }

// Attach implements Policy.
func (NullPolicy) Attach(*Machine) error { return nil }

// IntervalNs implements Policy.
func (p NullPolicy) IntervalNs() int64 {
	if p.Interval > 0 {
		return p.Interval
	}
	return 1e9
}

// Tick implements Policy.
func (NullPolicy) Tick(*Machine, int64) error { return nil }

// Footprint implements Policy: everything mapped is hot.
func (NullPolicy) Footprint(m *Machine) Footprint {
	return AllHotFootprint(m.PageTable())
}

// RunConfig controls a simulation run.
type RunConfig struct {
	// DurationNs is the virtual run length.
	DurationNs int64
	// WindowNs is the metric sampling window (default: policy interval).
	WindowNs int64
	// WarmupNs excludes an initial span from summary statistics
	// (series still record it).
	WarmupNs int64
	// MaxOps bounds total simulated accesses as a safety valve
	// (0 = unlimited).
	MaxOps uint64
	// OpsPerRequest groups consecutive ops into requests and records
	// request latencies, enabling tail-latency comparisons (the paper
	// reports 95th/99th percentile read/write latencies). 0 disables.
	OpsPerRequest int
	// TickHook, when non-nil, runs after every policy tick (and after the
	// telemetry epoch rolls), on the simulation goroutine at virtual time
	// now. It is the daemon's deterministic control point: config-reload
	// timeline events, the degradation ladder, and checkpoints all apply
	// here, so anything the hook changes lands exactly on an epoch
	// boundary. Returning ErrStopRun ends the run cleanly; any other
	// error aborts it. The policy interval is re-read after each tick, so
	// a hook that retunes the scan period takes effect the next period.
	TickHook func(nowNs int64) error
}

// RunResult captures everything the experiment harness needs.
type RunResult struct {
	AppName    string
	PolicyName string

	Ops        uint64
	DurationNs int64
	// Throughput is ops per virtual second over the post-warmup span.
	Throughput float64

	// SlowRate is the slow-memory access rate (accesses/sec) per window —
	// Figure 3's series.
	SlowRate *stats.Series
	// Cold2M, Cold4K, Hot2M, Hot4K are footprint bytes per window —
	// Figures 5-10's series.
	Cold2M, Cold4K, Hot2M, Hot4K *stats.Series

	// FinalFootprint is the classification at run end.
	FinalFootprint Footprint
	// Metrics is the machine counter snapshot at run end.
	Metrics Metrics
	// RequestLatency aggregates per-request latencies when
	// RunConfig.OpsPerRequest > 0 (for p95/p99 comparisons); nil
	// otherwise.
	RequestLatency *stats.Histogram
}

// MeanColdFraction averages cold/total over windows after fromNs.
func (r *RunResult) MeanColdFraction(fromNs int64) float64 {
	var fracs []float64
	for i := range r.Cold2M.Values {
		if r.Cold2M.Times[i] < fromNs {
			continue
		}
		total := r.Cold2M.Values[i] + r.Cold4K.Values[i] + r.Hot2M.Values[i] + r.Hot4K.Values[i]
		if total > 0 {
			fracs = append(fracs, (r.Cold2M.Values[i]+r.Cold4K.Values[i])/total)
		}
	}
	if len(fracs) == 0 {
		return 0
	}
	sum := 0.0
	for _, f := range fracs {
		sum += f
	}
	return sum / float64(len(fracs))
}

// Run executes app under pol on m for the configured duration. The app must
// not have been initialized already.
func Run(m *Machine, app App, pol Policy, rc RunConfig) (*RunResult, error) {
	if rc.DurationNs <= 0 {
		return nil, fmt.Errorf("sim: non-positive duration %d", rc.DurationNs)
	}
	if err := app.Init(m); err != nil {
		return nil, fmt.Errorf("sim: init %s: %w", app.Name(), err)
	}
	if err := pol.Attach(m); err != nil {
		return nil, fmt.Errorf("sim: attach %s: %w", pol.Name(), err)
	}
	interval := pol.IntervalNs()
	if interval <= 0 {
		return nil, fmt.Errorf("sim: policy %s has non-positive interval", pol.Name())
	}
	window := rc.WindowNs
	if window <= 0 {
		window = interval
	}

	res := &RunResult{
		AppName:    app.Name(),
		PolicyName: pol.Name(),
		SlowRate:   stats.NewSeries("slow-access-rate"),
		Cold2M:     stats.NewSeries("cold-2M-bytes"),
		Cold4K:     stats.NewSeries("cold-4K-bytes"),
		Hot2M:      stats.NewSeries("hot-2M-bytes"),
		Hot4K:      stats.NewSeries("hot-4K-bytes"),
	}

	if rc.OpsPerRequest > 0 {
		res.RequestLatency = stats.NewHistogram()
	}

	// Telemetry epochs follow the policy tick: one epoch per scan interval,
	// recorded in virtual time so traces are deterministic.
	et := NewEpochTracker(m, pol)

	start := m.Clock()
	end := start + rc.DurationNs
	nextTick := start + interval
	nextWindow := start + window
	var windowStartSlow uint64
	var warmupOps uint64
	warmupClock := start + rc.WarmupNs
	var reqLat int64
	var reqOps int

	// Ops run through AccessBatch in blocks sized so that no tick, window,
	// warmup or end boundary can fire before the block's last op — the block
	// is then exactly that many serial iterations (see DESIGN.md "Hot path").
	// An app without NextBatch runs blocks of one.
	computeNs := app.ComputeNs()
	batcher, _ := app.(BatchApp)
	reqs := make([]Req, MaxBlockOps)
	lats := make([]int64, MaxBlockOps)
	var clks []int64
	if rc.OpsPerRequest > 0 {
		clks = make([]int64, MaxBlockOps)
	}
	maxAdv := m.MaxOpAdvanceNs(computeNs)

	for m.Clock() < end {
		if rc.MaxOps > 0 && res.Ops >= rc.MaxOps {
			break
		}
		now := m.Clock()
		inWarmup := rc.WarmupNs > 0 && now <= warmupClock
		got := 0
		if batcher != nil {
			// Nearest boundary the block must not cross before its last op.
			limit := min(nextTick, nextWindow, end)
			if inWarmup {
				limit = min(limit, warmupClock+1)
			}
			if n := m.BlockOps(limit, maxAdv, rc.MaxOps, res.Ops); n >= 2 {
				got = batcher.NextBatch(reqs[:n])
			}
		}
		if got == 0 {
			reqs[0].V, reqs[0].Write = app.Next()
			got = 1
		}
		if err := m.AccessBatch(reqs[:got], computeNs, lats[:got], clks); err != nil {
			return nil, fmt.Errorf("sim: %s op %d: %w", app.Name(), res.Ops, err)
		}
		if rc.OpsPerRequest > 0 {
			for i := 0; i < got; i++ {
				reqLat += lats[i] + computeNs
				reqOps++
				if reqOps >= rc.OpsPerRequest {
					if clks[i] >= warmupClock {
						res.RequestLatency.Observe(uint64(reqLat))
					}
					reqLat, reqOps = 0, 0
				}
			}
		}
		res.Ops += uint64(got)
		if inWarmup {
			// Ops 1..got-1 ended at or before warmupClock by construction;
			// only the last can have crossed.
			if m.Clock() <= warmupClock {
				warmupOps = res.Ops
			} else {
				warmupOps = res.Ops - 1
			}
		}

		now = m.Clock()
		for now >= nextWindow {
			slow := m.Metrics().SlowAccesses
			rate := stats.Rate(slow-windowStartSlow, window)
			res.SlowRate.Append(nextWindow-start, rate)
			windowStartSlow = slow
			fp := pol.Footprint(m)
			res.Cold2M.Append(nextWindow-start, float64(fp.Cold2M))
			res.Cold4K.Append(nextWindow-start, float64(fp.Cold4K))
			res.Hot2M.Append(nextWindow-start, float64(fp.Hot2M))
			res.Hot4K.Append(nextWindow-start, float64(fp.Hot4K))
			nextWindow += window
		}
		stopped := false
		for now >= nextTick {
			if err := app.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", app.Name(), err)
			}
			if err := pol.Tick(m, now); err != nil {
				return nil, fmt.Errorf("sim: %s tick: %w", pol.Name(), err)
			}
			et.Roll(now)
			if rc.TickHook != nil {
				if err := rc.TickHook(now); err != nil {
					if errors.Is(err, ErrStopRun) {
						stopped = true
						break
					}
					return nil, fmt.Errorf("sim: tick hook: %w", err)
				}
			}
			// Re-read the interval: a TickHook may have retuned the scan
			// period (reload or degradation), and the change must govern
			// the very next tick. Policies with a fixed interval return
			// the same value, so this is bit-identical to the old
			// captured-once increment.
			nextTick += pol.IntervalNs()
		}
		if stopped {
			break
		}
	}
	et.End(m.Clock())

	res.DurationNs = m.Clock() - start
	span := res.DurationNs - rc.WarmupNs
	if span <= 0 {
		span = res.DurationNs
		warmupOps = 0
	}
	res.Throughput = stats.Rate(res.Ops-warmupOps, span)
	res.FinalFootprint = pol.Footprint(m)
	res.Metrics = m.Metrics()
	return res, nil
}

// Slowdown compares a policy run against a baseline run of the same app:
// (baseline throughput / policy throughput) - 1, e.g. 0.03 for a 3%
// degradation.
func Slowdown(baseline, policy *RunResult) float64 {
	if policy.Throughput == 0 {
		return 0
	}
	return baseline.Throughput/policy.Throughput - 1
}

// ScanFootprint classifies every mapped leaf by backing tier and grain,
// optionally restricted to the given address ranges (nil = whole table).
// Policies use it to implement Footprint. The per-tier breakdown covers the
// machine's whole hierarchy; the Hot/Cold aggregates fold every non-top
// tier into Cold.
func ScanFootprint(m *Machine, ranges []addr.Range) Footprint {
	fp := Footprint{ByTier: make([]TierBytes, m.Memory().NumTiers())}
	m.PageTable().Scan(func(base addr.Virt, e *pagetable.PTE, lvl pagetable.Level) {
		if ranges != nil {
			in := false
			for _, r := range ranges {
				if r.Contains(base) {
					in = true
					break
				}
			}
			if !in {
				return
			}
		}
		fp.AddLeaf(lvl, m.Memory().TierOf(e.Frame()))
	})
	return fp
}
