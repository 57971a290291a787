package obsv

import (
	"context"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ShutdownOnSignal installs a SIGINT/SIGTERM handler that drains the given
// observability servers gracefully — in-flight scrapes finish within grace
// — and then exits with the conventional 128+signal code (130 for SIGINT,
// 143 for SIGTERM). The batch CLIs use it so a ^C mid-run no longer kills
// listeners mid-scrape; the daemon has its own, richer signal loop and does
// not. The returned stop function uninstalls the handler (call it when the
// run ends normally, so late signals get default handling again).
func ShutdownOnSignal(grace time.Duration, logger *slog.Logger, servers ...*server) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			if logger != nil {
				logger.Info("signal received; draining observability listeners",
					"signal", sig.String(), "grace", grace.String())
			}
			ctx, cancel := context.WithTimeout(context.Background(), grace)
			for _, s := range servers {
				s.Shutdown(ctx) //nolint:errcheck // best-effort drain on the way out
			}
			cancel()
			code := 130
			if sig == syscall.SIGTERM {
				code = 143
			}
			os.Exit(code)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
