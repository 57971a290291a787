// Command bench is the repository's benchmark: five seeded workloads over the
// simulator's public packages, measured on two clocks — calibrated host cost
// per simulated access, and the exact virtual-time results the paper reports
// — plus one traced run per workload that attributes host time to layers.
// See README.md for the protocol and the metric glossary.
//
//	bash bench/run.sh                         # every workload, both modes
//	bash bench/run.sh --workload redis-walk --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -diff a/results.json b/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all")
		seed         = flag.Uint64("seed", 1, "seed of every generated input (2 is the held-out seed)")
		seconds      = flag.Int("seconds", runSeconds, "budget of one run's measurement loop, in seconds")
		trace        = flag.String("trace", "both", "0: end-to-end metrics; 1: traced run and per-layer metrics; both")
		repeats      = flag.Int("repeats", 0, "fixed repeat count (0: fill --seconds, at least the workload's minimum)")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result files, traces and scratch space")
		diff         = flag.Bool("diff", false, "compare two result files: -diff A.json B.json")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *printSpec:
		os.Stdout.Write(benchmarkSpec())
		return
	case *diff:
		if flag.NArg() != 2 {
			fatal("usage: -diff A.json B.json")
		}
		ok, err := diffFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var modes []bool // traced?
	switch *trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		fatal("--trace must be 0, 1 or both, not %q", *trace)
	}
	var todo []*scenario
	if *workloadName == "all" {
		todo = scenarios()
	} else if sc := scenarioByName(*workloadName); sc != nil {
		todo = []*scenario{sc}
	} else {
		fatal("unknown workload %q", *workloadName)
	}
	if *seconds < 1 {
		fatal("--seconds must be at least 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal("%v", err)
	}

	start := time.Now()
	file := resultFile{Header: newHeader(*seed, *seconds, *repeats)}
	for _, sc := range todo {
		r := &runner{sc: sc, seed: *seed, outDir: *outDir}
		w, err := r.measure(modes, time.Duration(*seconds)*time.Second, *repeats)
		if err != nil {
			fatal("%s: %v", sc.name, err)
		}
		file.Workloads = append(file.Workloads, w)
	}
	file.Header.TotalWallS = time.Since(start).Seconds()

	name := "results.json"
	if len(todo) == 1 {
		name = fmt.Sprintf("results-%s-trace%s.json", todo[0].name, *trace)
	}
	path := filepath.Join(*outDir, name)
	if err := file.write(path); err != nil {
		fatal("%v", err)
	}
	file.print(os.Stdout)
	fmt.Printf("results: %s\n", path)

	// The last line is the driver's: one workload, one mode.
	if len(todo) == 1 && len(modes) == 1 {
		w := file.Workloads[0]
		defs, values := endToEnd, w.EndToEnd
		if modes[0] {
			defs, values = perLayer, w.PerLayer
		}
		type reported struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool                `json:"correct"`
			Attempted uint64              `json:"attempted"`
			Failed    uint64              `json:"failed"`
			Metrics   map[string]reported `json:"metrics"`
		}{w.OpsFailed == 0, w.OpsAttempted, w.OpsFailed, map[string]reported{}}
		for _, d := range defs {
			line.Metrics[d.Name] = reported{values[d.Name], d.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(b))
	}
}

// measure runs the scenario in the requested modes and checks the result.
func (r *runner) measure(modes []bool, budget time.Duration, fixed int) (*workloadResult, error) {
	start := time.Now()
	w := &workloadResult{Name: r.sc.name}
	var sum *summary
	for _, traced := range modes {
		if !traced {
			var err error
			if sum, err = r.untraced(w, budget, r.sc.minRepeats, fixed); err != nil {
				return nil, err
			}
			w.EndToEnd = endToEndMetrics(sum)
			r.verifyLast(w, sum)
			continue
		}
		if err := r.traced(w, sum, budget, fixed); err != nil {
			return nil, err
		}
	}
	w.WallS = time.Since(start).Seconds()
	return w, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
