// Command repro regenerates every table and figure from the paper's
// evaluation (see DESIGN.md for the experiment index):
//
//	repro -exp all                     # everything, repro scale
//	repro -exp fig1,table1 -scale bench
//	repro -exp colddata -apps cassandra,redis
//	repro -exp fig11 -csv out/         # also dump CSVs
//
// harness.Experiments is the set -exp accepts; 'all' is the paper
// regeneration and leaves out this repo's opt-in extensions.
//
// Independent runs fan out across -workers goroutines (default: all cores).
// Results are bit-for-bit identical at any worker count; -workers 1 is the
// exact old serial path.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"thermostat/internal/daemon"
	"thermostat/internal/harness"
	"thermostat/internal/obsv"
)

// logger is the process-wide structured logger, configured by -log-format
// in main before any run starts.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// pick resolves an -exp value to the experiments it names, in table order.
func pick(exps string) ([]harness.Experiment, error) {
	want := map[string]bool{}
	names := []string{"all"}
	for _, x := range harness.Experiments {
		names = append(names, x.Name)
	}
	for _, e := range strings.Split(exps, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(names, e) {
			return nil, fmt.Errorf("unknown experiment %q (experiments: %s)", e, strings.Join(names, ", "))
		}
		want[e] = true
	}
	var picked []harness.Experiment
	for _, x := range harness.Experiments {
		if want[x.Name] || x.InAll && want["all"] {
			picked = append(picked, x)
		}
	}
	return picked, nil
}

// validate rejects inconsistent flag combinations before any simulation
// state is built, with a one-line usage error per defect. The experiment
// list is repro's own; everything else is daemon.Config.Validate, the one
// copy of the rules shared with cmd/thermostat-sim and thermostatd.
func validate(exps string, cfg daemon.Config) error {
	if _, err := pick(exps); err != nil {
		return err
	}
	return cfg.Validate()
}

func main() {
	// The flags are the CLI spelling of one daemon.Config. Every repro run
	// drives the paper's thermostat arm, so the policy is fixed.
	cfg := daemon.Config{Policy: "thermostat"}
	expFlag := flag.String("exp", "all", "comma-separated experiments or 'all'")
	csvDir := flag.String("csv", "", "directory to also write CSV outputs into")
	svgDir := flag.String("svg", "", "directory to also render SVG figures into")
	outDir := flag.String("results", "results", "directory the fleet and scale experiments write their committed artifacts into")
	flag.StringVar(&cfg.Scale, "scale", "repro", "scale profile: tiny, bench, repro")
	flag.Func("apps", "comma-separated `apps` to run instead of all six", func(s string) error {
		cfg.Apps = nil
		if s != "" {
			cfg.Apps = strings.Split(s, ",")
		}
		return nil
	})
	flag.Float64Var(&cfg.SlowdownPct, "slowdown", 3, "tolerable slowdown percent for Thermostat runs")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "random seed")
	flag.Float64Var(&cfg.DurationS, "duration", 0, "override run length in simulated seconds")
	flag.IntVar(&cfg.Workers, "workers", 0, "goroutines fanning independent runs out (0 = all cores, 1 = serial; results are identical at any setting)")
	flag.StringVar(&cfg.Serve, "serve", "", "serve the live observability plane (/metrics, /status, /tenants, /dump, pprof) on this address (e.g. localhost:9090) for the duration of the run")
	flag.StringVar(&cfg.LogFormat, "log-format", "text", "progress log format: text or json")
	flag.Parse()

	if err := validate(*expFlag, cfg); err != nil {
		fatal(err)
	}
	picked, _ := pick(*expFlag)                          // names vetted above
	logger, _ = obsv.NewLogger(os.Stderr, cfg.LogFormat) // format vetted above

	// -apps, -scale, -seed and -duration resolve as every front end's
	// config does; each -apps name is resolved as that config's app.
	_, sc, _, err := cfg.Resolve()
	if err != nil {
		fatal(err)
	}
	opt := harness.Options{Scale: sc, SlowdownPct: cfg.SlowdownPct, Workers: cfg.Workers}
	for _, name := range cfg.Apps {
		app := cfg
		app.App = strings.TrimSpace(name)
		spec, _, _, err := app.Resolve()
		if err != nil {
			fatal(err)
		}
		opt.Apps = append(opt.Apps, spec)
	}
	if cfg.Serve != "" {
		pub := obsv.NewPublisher()
		pub.SetInfo(obsv.Info{
			Binary: "repro", App: strings.Join(cfg.Apps, ","), Policy: cfg.Policy,
			Scale: cfg.Scale, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		servers, err := obsv.ServeAll(pub, logger, cfg.Serve)
		if err != nil {
			fatal(err)
		}
		// ^C or SIGTERM drains in-flight scrapes before exiting instead of
		// cutting connections mid-response.
		stop := obsv.ShutdownOnSignal(5*time.Second, logger, servers...)
		defer stop()
		pub.SetPhase(obsv.PhaseRunning)
		defer pub.SetPhase(obsv.PhaseDone)
		opt.Publisher = pub
	}

	logger.Info("running experiments", "exp", *expFlag, "scale", sc.Name)
	err = harness.RunExperiments(opt, picked, func(name string, outs []harness.Output) {
		logger.Info("finished experiment", "exp", name)
		for _, o := range outs {
			switch {
			case o.Text != "":
				fmt.Println(o.Text)
			case o.Table != nil:
				fmt.Println(o.Table.String())
			}
			if o.Table != nil {
				write(*csvDir, o.Name+".csv", o.Table.WriteCSV)
			}
			if o.SVG != nil {
				write(*svgDir, o.Name+".svg", o.SVG)
			}
			if o.File != nil && *outDir != "" {
				write(*outDir, o.Name, func(w io.Writer) error { _, err := w.Write(o.File); return err })
				logger.Info("wrote committed result", "path", filepath.Join(*outDir, o.Name))
			}
		}
	})
	if err != nil {
		fatal(err)
	}
}

// write creates dir/name and fills it; an empty dir is an output nobody
// asked for. A file that fails to fill or to close is fatal.
func write(dir, name string, fill func(io.Writer) error) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	if err := errors.Join(fill(f), f.Close()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error("repro failed", "err", err)
	os.Exit(1)
}
