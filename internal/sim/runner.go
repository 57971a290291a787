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
	// returns len(reqs); a short count fails the run. The Scheduler draws a
	// block's requests before issuing them, so the stream may depend on the
	// machine only through Init and Tick. It may run on the Scheduler's
	// producer goroutine, concurrently only with the simulator's own access
	// path and its miss hook, which shares no state with an App: never with
	// Init or Tick, and never with a Recorder, which the Scheduler calls
	// only between blocks when none is drawn ahead.
	NextBatch(reqs []Req) int
	// ComputeNs is the fixed computation time between accesses (per op).
	ComputeNs() int64
	// Tick runs app phase behaviour (footprint growth, phase changes) and
	// is called at every policy interval boundary.
	Tick(m *Machine, nowNs int64) error
}

// tierBytes is one tier's share of a footprint, by mapping grain.
type tierBytes struct {
	Bytes2M uint64
	Bytes4K uint64
}

// Total returns the tier's mapped bytes.
func (t tierBytes) Total() uint64 { return t.Bytes2M + t.Bytes4K }

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
	ByTier []tierBytes
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

// Run executes app under pol on m for the configured duration: the
// Scheduler with one member, whose every tick also rolls the telemetry
// epoch and runs rc.TickHook. The app must not have been initialized
// already.
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
	if pol.IntervalNs() <= 0 {
		return nil, fmt.Errorf("sim: policy %s has non-positive interval", pol.Name())
	}
	if rc.WindowNs <= 0 {
		rc.WindowNs = pol.IntervalNs()
	}
	s := NewScheduler(m, rc, app.Name(), pol.Name(), pol.Footprint)
	defer s.Stop()
	s.Add(app.Name(), app, pol, 1)
	s.Join(0)
	// Telemetry epochs follow the policy tick: one epoch per scan interval,
	// recorded in virtual time so traces are deterministic.
	s.Begin(pol)
	for !s.Done() {
		if err := s.Block(s.end); err != nil {
			return nil, err
		}
		for now := m.Clock(); s.DueTick(now) == 0; {
			if err := s.Tick(0, now); err != nil {
				return nil, err
			}
			s.RollEpoch(now)
			if rc.TickHook != nil {
				if err := rc.TickHook(now); errors.Is(err, ErrStopRun) {
					return s.Close(), nil
				} else if err != nil {
					return nil, fmt.Errorf("sim: tick hook: %w", err)
				}
			}
		}
	}
	return s.Close(), nil
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
	fp := Footprint{ByTier: make([]tierBytes, m.Memory().NumTiers())}
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
		fp.addLeaf(lvl, m.Memory().TierOf(e.Frame()))
	})
	return fp
}
