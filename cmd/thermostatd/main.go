// Command thermostatd runs one simulation as a supervised long-running
// daemon: config-file driven, hot-reloadable, crash-safe, and observable.
//
//	thermostatd -config examples/configs/daemon.yaml
//	thermostatd -config examples/configs/daemon.yaml -check   # validate only
//
// The config file (YAML subset or strict JSON; see examples/configs/) is
// the daemon's single input. While the run is in flight:
//
//   - SIGHUP, or POST /reload on the -serve address, re-reads the config
//     file and applies the permitted changes at the next epoch boundary.
//     Applied reloads are journaled as timestamped events in virtual time,
//     so a reloaded run replays bit-identically from its journal.
//   - SIGINT/SIGTERM stop the run gracefully at the next epoch boundary:
//     telemetry is flushed, listeners drain, and the exit code is 0.
//   - With daemon.checkpoint_path set, the run checkpoints temp-then-rename
//     at epoch boundaries, and a restart finding the checkpoint resumes the
//     run bit-identically from the last saved boundary (kill -9 safe).
//   - Sustained chaos faults walk the degradation ladder (healthy →
//     degraded → quarantine-only → halted, with hysteresis); the current
//     rung is visible in /status and the structured log.
//
// Exit codes: 0 completed or stopped, 1 run error or panic, 2 config
// error or an unreadable checkpoint, 3 halted by the degradation ladder.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"thermostat/internal/daemon"
	"thermostat/internal/obsv"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		configPath = flag.String("config", "", "config file (YAML subset or strict JSON; required)")
		check      = flag.Bool("check", false, "validate the config, print its normalized form, and exit")
	)
	flag.Parse()

	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "thermostatd: -config is required (see examples/configs/)")
		flag.Usage()
		return 2
	}
	cfg, err := daemon.LoadFile(*configPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if err := cfg.ValidateForDaemon(); err != nil {
		fmt.Fprintf(os.Stderr, "thermostatd: %s: %v\n", *configPath, err)
		return 2
	}
	if *check {
		os.Stdout.Write(cfg.Encode())
		return 0
	}
	logger, _ := obsv.NewLogger(os.Stderr, cfg.LogFormat) // format vetted above

	runner := &daemon.Runner{Config: cfg, Logger: logger}

	// Restore-on-start: a surviving checkpoint means the previous process
	// died mid-run (a completed run removes its checkpoint). The checkpoint
	// carries the run's deterministic closure — start config plus reload
	// journal — and that closure wins over the config file on disk, which
	// may have changed since; reload it again after the restore if wanted.
	if cfg.Daemon.CheckpointPath != "" {
		cp, err := daemon.ReadCheckpoint(cfg.Daemon.CheckpointPath)
		if err != nil {
			// A torn or damaged checkpoint is bad input, like a bad config.
			fmt.Fprintf(os.Stderr, "thermostatd: %v\n", err)
			return 2
		}
		if cp != nil {
			logger.Info("checkpoint found; resuming previous run",
				"path", cfg.Daemon.CheckpointPath,
				"epoch", cp.SavedAtEpoch, "virtual_ns", cp.VirtualNs)
			runner.Config = cp.Config
			runner.Timeline = cp.Timeline
			runner.Restore = cp
		}
	}

	// On the observability plane /status carries the daemon's health rung
	// and POST /reload re-reads the config file exactly like SIGHUP.
	if cfg.Serve != "" {
		pub := obsv.NewPublisher()
		pub.SetInfo(obsv.Info{
			Binary: "thermostatd", App: cfg.App, Tracker: cfg.Tracker,
			Policy: cfg.Policy, Scale: cfg.Scale, Seed: cfg.Seed,
		})
		runner.Publisher = pub
		servers, err := obsv.ServeAll(pub, logger, cfg.Serve)
		if err != nil {
			fmt.Fprintf(os.Stderr, "thermostatd: %v\n", err)
			return 1
		}
		for _, srv := range servers {
			srv.SetReloadHandler(func() ([]string, error) {
				return reloadFromFile(runner, *configPath)
			})
		}
		pub.SetPhase(obsv.PhaseRunning)
		defer pub.SetPhase(obsv.PhaseDone)
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for _, s := range servers {
				s.Shutdown(ctx) //nolint:errcheck // best-effort drain on the way out
			}
		}()
	}

	// Signal plumbing: HUP reloads, INT/TERM stop gracefully (the run ends
	// at the next epoch boundary, telemetry flushes, exit 0).
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGHUP, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case sig := <-sigc:
				switch sig {
				case syscall.SIGHUP:
					changes, err := reloadFromFile(runner, *configPath)
					switch {
					case err != nil:
						logger.Error("reload rejected", "err", err)
					case len(changes) == 0:
						logger.Info("reload is a no-op; nothing queued")
					default:
						logger.Info("reload queued for next epoch boundary", "changes", changes)
					}
				default:
					logger.Info("signal received; stopping at next epoch boundary", "signal", sig.String())
					runner.Stop()
				}
			case <-done:
				return
			}
		}
	}()

	logger.Info("daemon starting", "config", *configPath,
		"app", runner.Config.App, "policy", runner.Config.Policy, "scale", runner.Config.Scale)
	out, err := runner.Run()
	signal.Stop(sigc)
	switch {
	case errors.Is(err, daemon.ErrHalted):
		logger.Error("run halted by degradation ladder", "epochs", out.Epochs)
		return 3
	case err != nil:
		logger.Error("run failed", "err", err)
		return 1
	}
	if out.Config.Telemetry.Epochs {
		fmt.Println(out.Collector.EpochTable())
	}
	logger.Info("run complete", "epochs", out.Epochs, "health", out.Health.String(),
		"reloads", len(out.Timeline))
	return 0
}

// reloadFromFile re-reads the daemon's config file and queues the diff
// against the running config; SIGHUP and POST /reload share it.
func reloadFromFile(r *daemon.Runner, path string) ([]string, error) {
	next, err := daemon.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return r.Reload(next)
}
