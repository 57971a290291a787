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
	// NextBatch fills reqs with the app's next len(reqs) accesses and
	// returns len(reqs); a short count fails the run (see Draw). The run
	// loops draw a block's requests before issuing them, so the stream may
	// depend on the machine only through Init and Tick.
	NextBatch(reqs []Req) int
	// ComputeNs is the fixed computation time between accesses (per op).
	ComputeNs() int64
	// Tick runs app phase behaviour (footprint growth, phase changes) and
	// is called at every policy interval boundary.
	Tick(m *Machine, nowNs int64) error
}

// Draw fills reqs from app, failing with an error that names the app when
// NextBatch comes back short.
func Draw(app App, reqs []Req) error {
	if got := app.NextBatch(reqs); got != len(reqs) {
		return fmt.Errorf("sim: %s NextBatch drew %d of %d requests", app.Name(), got, len(reqs))
	}
	return nil
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

// Tally is the result bookkeeping Run and fleet.Run share: the RunResult's
// series, one point per metric window, and the run totals at the end. Each
// loop supplies its own footprint view — its policy's for Run, the whole
// page table for the fleet.
type Tally struct {
	m         *Machine
	res       *RunResult
	footprint func(*Machine) Footprint
	start     int64
	window    int64
	next      int64  // when the open window closes
	slow      uint64 // SlowAccesses when the open window opened
}

// NewTally opens the first window of windowNs at m's clock.
func NewTally(m *Machine, appName, policyName string, windowNs int64, footprint func(*Machine) Footprint) *Tally {
	return &Tally{
		m: m,
		res: &RunResult{
			AppName:    appName,
			PolicyName: policyName,
			SlowRate:   stats.NewSeries("slow-access-rate"),
			Cold2M:     stats.NewSeries("cold-2M-bytes"),
			Cold4K:     stats.NewSeries("cold-4K-bytes"),
			Hot2M:      stats.NewSeries("hot-2M-bytes"),
			Hot4K:      stats.NewSeries("hot-4K-bytes"),
		},
		footprint: footprint,
		start:     m.Clock(),
		window:    windowNs,
		next:      m.Clock() + windowNs,
	}
}

// NextWindow returns when the open window closes.
func (t *Tally) NextWindow() int64 { return t.next }

// Windows closes every window that has ended by now, recording its
// slow-access rate and the footprint at that instant. Loops call it before
// any other boundary work, so the series see the machine as the window left
// it.
func (t *Tally) Windows(now int64) {
	for now >= t.next {
		at := t.next - t.start
		slow := t.m.Metrics().SlowAccesses
		t.res.SlowRate.Append(at, stats.Rate(slow-t.slow, t.window))
		t.slow = slow
		fp := t.footprint(t.m)
		t.res.Cold2M.Append(at, float64(fp.Cold2M))
		t.res.Cold4K.Append(at, float64(fp.Cold4K))
		t.res.Hot2M.Append(at, float64(fp.Hot2M))
		t.res.Hot4K.Append(at, float64(fp.Hot4K))
		t.next += t.window
	}
}

// Close completes the result at the machine's clock with the run's
// throughput, final footprint and counters.
func (t *Tally) Close(ops, warmupOps uint64, warmupNs int64) *RunResult {
	res := t.res
	res.Ops = ops
	res.DurationNs = t.m.Clock() - t.start
	res.Throughput = Throughput(ops, warmupOps, t.start, t.start+warmupNs, t.m.Clock())
	res.FinalFootprint = t.footprint(t.m)
	res.Metrics = t.m.Metrics()
	return res
}

// Throughput is ops per virtual second over a span that opens at from and
// closes at to: the ops after the first warmupOps, counted from the warm-up
// mark when that falls later than from; a span that closes by the mark
// counts every op from from.
func Throughput(ops, warmupOps uint64, from, warmupClock, to int64) float64 {
	span := to - max(from, warmupClock)
	if span <= 0 {
		span, warmupOps = to-from, 0
	}
	return stats.Rate(ops-warmupOps, span)
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
	tally := NewTally(m, app.Name(), pol.Name(), window, pol.Footprint)
	// Telemetry epochs follow the policy tick: one epoch per scan interval,
	// recorded in virtual time so traces are deterministic.
	et := NewEpochTracker(m, pol)

	start := m.Clock()
	end := start + rc.DurationNs
	nextTick := start + interval
	warmupClock := start + rc.WarmupNs
	var ops, warmupOps uint64

	// Ops run through AccessBatch in blocks sized so that no tick, window,
	// warmup or end boundary can fire before the block's last op — the block
	// is then exactly that many serial iterations (see DESIGN.md "Hot path").
	computeNs := app.ComputeNs()
	maxAdv := m.MaxOpAdvanceNs(computeNs)
	reqs := make([]Req, MaxBlockOps)
	for m.Clock() < end {
		inWarmup := rc.WarmupNs > 0 && m.Clock() <= warmupClock
		// Nearest boundary the block must not cross before its last op.
		limit := min(nextTick, tally.NextWindow(), end)
		if inWarmup {
			limit = min(limit, warmupClock+1)
		}
		block := reqs[:m.BlockOps(limit, maxAdv)]
		if err := Draw(app, block); err != nil {
			return nil, err
		}
		if err := m.AccessBatch(block, computeNs); err != nil {
			return nil, fmt.Errorf("sim: %s op %d: %w", app.Name(), ops, err)
		}
		ops += uint64(len(block))
		if inWarmup {
			// All but the last op ended at or before warmupClock by
			// construction; only the last can have crossed.
			warmupOps = ops
			if m.Clock() > warmupClock {
				warmupOps--
			}
		}

		now := m.Clock()
		tally.Windows(now)
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
			// the very next tick.
			nextTick += pol.IntervalNs()
		}
		if stopped {
			break
		}
	}
	et.End(m.Clock())
	return tally.Close(ops, warmupOps, rc.WarmupNs), nil
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
