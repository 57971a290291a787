package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadResult is one workload's entry in a result file.
type workloadResult struct {
	Name string `json:"name"`
	// SimDigest fingerprints every simulated statistic of the run; a change
	// that is only meant to make the simulator faster must leave it alone.
	SimDigest    string `json:"sim_digest"`
	TracedDigest string `json:"traced_digest,omitempty"`
	// OpsAttempted counts simulated accesses over all repeats plus one per
	// correctness check; OpsFailed those of failed repeats and checks.
	OpsAttempted uint64   `json:"ops_attempted"`
	OpsFailed    uint64   `json:"ops_failed"`
	Failures     []string `json:"failures,omitempty"`
	Notes        []string `json:"notes,omitempty"`
	Repeats      int      `json:"repeats"`
	WallS        float64  `json:"wall_s"`
	// RepeatCosts and CalibNsPerIter list every untraced repeat's calibrated
	// cost and mean calibration speed, in order: every run made is reported.
	RepeatCosts    []float64          `json:"repeat_costs,omitempty"`
	CalibNsPerIter []float64          `json:"calib_ns_per_iter,omitempty"`
	EndToEnd       map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer       map[string]float64 `json:"per_layer,omitempty"`
}

func (w *workloadResult) fail(ops uint64, format string, args ...any) {
	w.OpsFailed += ops
	w.Failures = append(w.Failures, fmt.Sprintf(format, args...))
}

// check records one correctness check as an attempted op, failed if err.
func (w *workloadResult) check(what string, err error) {
	w.OpsAttempted++
	if err != nil {
		w.fail(1, "%s: %v", what, err)
	}
}

// repeatSample is what one repeat measured.
type repeatSample struct {
	out *outcome
	// wallNs is the timed call's wall time net of the calibration bursts
	// fired inside it.
	wallNs  int64
	allocKB float64
	// bursts are the calibration samples (ns per iteration) taken around
	// and inside the timed call.
	bursts []float64
	// setupS are the scenario set-up's wall seconds, one per sample; armS is
	// the rest of what a repeat does before its timed call, the calibration
	// burst and heap reading that arm the measurement.
	setupS []float64
	armS   float64
	// cap is the traced run's captured request stream.
	cap *capture
}

func (s *repeatSample) calibNsPerIter() float64 { return mean(s.bursts) }

// cost is the calibrated host cost of one simulated access: how many
// calibration iterations the host could have run instead.
func (s *repeatSample) cost() float64 {
	return float64(s.wallNs) / float64(s.out.ops) / s.calibNsPerIter()
}

// phaseCost calibrates one phase of the repeat's timed call.
func (s *repeatSample) phaseCost(name string) float64 {
	for _, p := range s.out.phases {
		if p.name == name && p.ops > 0 {
			return float64(p.wallNs) / float64(p.ops) / s.calibNsPerIter()
		}
	}
	return 0
}

// maxReseeds bounds how many aborting seeds in a row a scenario may skip.
const maxReseeds = 8

// runner measures one scenario.
type runner struct {
	sc   *scenario
	seed uint64
	// reseeds counts how often effectiveSeed had to move on (scenario.reseed).
	reseeds uint64
	short   bool
	outDir  string
	cal     calibrator
	seq     int
}

// effectiveSeed is the seed the scenario's inputs are generated from: --seed,
// moved on by 2^32 for every time the scenario aborted on it (see
// scenario.reseed). The same --seed always lands on the same effective seed.
func (r *runner) effectiveSeed() uint64 { return r.seed + r.reseeds<<32 }

// repeat performs set-up (timed, setupSamples times), then the timed call
// bracketed by calibration bursts.
func (r *runner) repeat(tr *tracer) (*repeatSample, error) {
	r.seq++
	dir := filepath.Join(r.outDir, fmt.Sprintf("tmp-%s-%d-%d", r.sc.name, os.Getpid(), r.seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := env{seed: r.effectiveSeed(), short: r.short, tr: tr, dir: dir}

	// Every repeat starts from a collected heap, so set-up and the timed call
	// see the same allocator state and GC phase each time.
	runtime.GC()
	s := &repeatSample{}
	var inst *instance
	n := r.sc.setupSamples
	if tr != nil || n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		var span int32
		if tr != nil {
			span = tr.begin("bench.setup")
		}
		t0 := time.Now()
		in, err := r.sc.setup(e)
		s.setupS = append(s.setupS, time.Since(t0).Seconds())
		if tr != nil {
			tr.end(span)
		}
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", r.sc.name, err)
		}
		inst = in
	}

	var before, after runtime.MemStats
	r.cal.take()
	arm := time.Now()
	r.cal.burst()
	runtime.ReadMemStats(&before)
	s.armS = time.Since(arm).Seconds()
	var span int32
	if tr != nil {
		span = tr.begin("run")
	}
	inner := r.cal.totalNs
	t0 := time.Now()
	out, err := inst.run(&r.cal)
	wall := time.Since(t0).Nanoseconds()
	inner = r.cal.totalNs - inner
	if tr != nil {
		tr.end(span)
	}
	runtime.ReadMemStats(&after)
	r.cal.burst()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.sc.name, err)
	}
	if out.ops == 0 {
		return nil, fmt.Errorf("%s simulated no accesses", r.sc.name)
	}
	s.out, s.cap = out, inst.cap
	s.wallNs = wall - inner
	s.allocKB = float64(after.TotalAlloc-before.TotalAlloc) / 1024
	s.bursts = r.cal.take()
	return s, nil
}

// summary is the untraced repeats of one run, reduced.
type summary struct {
	samples []*repeatSample
	first   *outcome // exact metrics come from the first repeat
}

func (s *summary) costs() []float64 {
	v := make([]float64, len(s.samples))
	for i, x := range s.samples {
		v[i] = x.cost()
	}
	return v
}

// untraced runs repeats until budget is spent (but at least min of them, and
// exactly fixed of them when fixed > 0), checking each against the first.
func (r *runner) untraced(w *workloadResult, budget time.Duration, min, fixed int) (*summary, error) {
	sum := &summary{}
	start := time.Now()
	var longest time.Duration
	for i := 0; ; i++ {
		if fixed > 0 {
			if i >= fixed {
				break
			}
		} else if i >= min && time.Since(start)+longest > budget {
			break
		}
		t0 := time.Now()
		s, err := r.repeat(nil)
		if d := time.Since(t0); d > longest {
			longest = d
		}
		if err != nil && r.sc.reseed && sum.first == nil && r.reseeds < maxReseeds {
			w.Notes = append(w.Notes, fmt.Sprintf("seed %d aborts the simulator (%v); moved on to seed %d",
				r.effectiveSeed(), err, r.effectiveSeed()+1<<32))
			r.reseeds++
			i--
			continue
		}
		if err != nil {
			// The run's op count is unknown; charge what a good repeat does.
			ops := uint64(1)
			if sum.first != nil {
				ops = sum.first.ops
			}
			w.OpsAttempted += ops
			w.fail(ops, "repeat %d: %v", i+1, err)
			if sum.first == nil {
				return nil, err
			}
			continue
		}
		w.OpsAttempted += s.out.ops
		if sum.first == nil {
			sum.first = s.out
		} else if d := s.out.digest(); d != sum.first.digest() {
			w.fail(s.out.ops, "repeat %d: sim_digest %s differs from repeat 1's %s", i+1, d, sum.first.digest())
		}
		for _, f := range s.out.failures {
			w.fail(s.out.ops, "repeat %d: %s", i+1, f)
		}
		// Keep the numbers, drop the machines: only the first and the last
		// repeat's simulator state is looked at again.
		if len(sum.samples) > 1 {
			prev := sum.samples[len(sum.samples)-1].out
			prev.machines, prev.engines, prev.collector, prev.fleetRes = nil, nil, nil, nil
		}
		sum.samples = append(sum.samples, s)
	}
	w.Repeats = len(sum.samples)
	w.RepeatCosts = sum.costs()
	for _, s := range sum.samples {
		w.CalibNsPerIter = append(w.CalibNsPerIter, s.calibNsPerIter())
	}
	w.SimDigest = sum.first.digest()
	return sum, nil
}

// verifyLast runs Machine.Verify on every machine of the last repeat. It is
// O(mapped pages) and therefore outside every timed section.
func (r *runner) verifyLast(w *workloadResult, sum *summary) {
	last := sum.samples[len(sum.samples)-1].out
	for i, m := range last.machines {
		w.check(fmt.Sprintf("Machine.Verify (machine %d)", i), m.Verify())
	}
	var err error
	if r.cal.badSums > 0 {
		err = fmt.Errorf("%d bursts returned a checksum other than %#x", r.cal.badSums, uint64(calibChecksum))
	}
	w.check("calibration checksum", err)
}

// endToEndMetrics reduces the repeats to the end-to-end metrics.
func endToEndMetrics(sum *summary) map[string]float64 {
	f := sum.first
	return map[string]float64{
		"host_cost_per_op":     median(sum.costs()),
		"setup_s":              median(sum.setups()),
		"state_mb":             float64(f.stateBytes) / 1e6,
		"virt_throughput_kops": f.result.Throughput / 1e3,
		"fast_mem_pct":         100 - 100*f.result.MeanColdFraction(f.warmupNs),
	}
}

// setups lists, per set-up sample, the time a repeat spends before its timed
// call — the scenario's set-up plus arming the measurement — in
// reference-host seconds: measured seconds scaled by how much faster or
// slower than calibRefNsPerIter the calibration kernel ran around that
// repeat. The arming burst is ≈ 1 ms of the total by construction. It is
// counted because it is part of what precedes every timed call, and because
// scenario set-ups of 30-50 us alone drift by a quarter between one
// ten-minute window and the next on this host (kernel allocation and file
// system state, which no user-space kernel tracks): with the burst in, a
// 25 % bound is an absolute tolerance of about a quarter of a millisecond —
// 0.01-0.03 % of a repeat — instead of a gate on 10 us of noise. The bare
// set-up is reported as host.setup_raw_us.
func (s *summary) setups() []float64 {
	var v []float64
	for _, x := range s.samples {
		scale := calibRefNsPerIter / x.calibNsPerIter()
		for _, sec := range x.setupS {
			v = append(v, (sec+x.armS)*scale)
		}
	}
	return v
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quantile returns the q-quantile of v by linear interpolation.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }
