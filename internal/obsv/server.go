package obsv

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"
)

// server exposes a Publisher over HTTP. It replaces the old sim-only debug
// server: the same mux carries the observability endpoints plus pprof and
// expvar, so one -serve address inspects everything.
//
// Endpoints:
//
//	/metrics          Prometheus text format (see metrics.go)
//	/healthz          liveness: "ok\n"
//	/status           JSON run status (phase, per-run epoch/virtual time)
//	/tenants          JSON per-tenant fleet state
//	/dump?what=accessed[&n=N]  plain-text classification census
//	/debug/pprof/...  runtime profiles
//	/debug/vars       expvar
type server struct {
	pub *Publisher
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener

	mu     sync.Mutex
	reload func() ([]string, error)
}

// newServer builds a server for pub (which must be non-nil).
func newServer(pub *Publisher) *server {
	s := &server{pub: pub, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/tenants", s.handleTenants)
	s.mux.HandleFunc("/dump", s.handleDump)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.Handle("/debug/vars", expvar.Handler())
	return s
}

// SetReloadHandler installs the function POST /reload invokes (the daemon
// wires it to a config re-read). Without one, /reload answers 501. The
// handler returns the queued change list, or an error rendered as 409.
func (s *server) SetReloadHandler(fn func() ([]string, error)) {
	s.mu.Lock()
	s.reload = fn
	s.mu.Unlock()
}

// start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0"). The server carries read and idle
// timeouts so a stalled client (slowloris) cannot pin a connection
// forever; there is deliberately no write timeout, which would cut off
// streaming pprof profiles.
func (s *server) start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obsv: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	return ln.Addr().String(), nil
}

// Shutdown drains the server gracefully: the listener closes at once, but
// in-flight requests (a /metrics scrape, a /dump) finish within ctx's
// deadline before connections are torn down. Idempotent; nil-safe before
// Start. Both CLIs and the daemon call this on SIGINT/SIGTERM.
func (s *server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// serve is the one-call helper the cmds use: build a server on pub and
// start it on addr.
func serve(addr string, pub *Publisher) (*server, string, error) {
	s := newServer(pub)
	bound, err := s.start(addr)
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}

// ServeAll starts one full server on pub per distinct non-empty address,
// logging each bound listener.
func ServeAll(pub *Publisher, logger *slog.Logger, addrs ...string) ([]*server, error) {
	var servers []*server
	seen := map[string]bool{}
	for _, addr := range addrs {
		if addr == "" || seen[addr] {
			continue
		}
		seen[addr] = true
		srv, bound, err := serve(addr, pub)
		if err != nil {
			return servers, err
		}
		servers = append(servers, srv)
		logger.Info("observability server listening", "addr", "http://"+bound,
			"endpoints", "/metrics /healthz /status /tenants /reload /dump /debug/pprof")
	}
	return servers, nil
}

func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /reload", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	fn := s.reload
	s.mu.Unlock()
	if fn == nil {
		http.Error(w, "no reload handler (batch run)", http.StatusNotImplemented)
		return
	}
	changes, err := fn()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if changes == nil {
		changes = []string{}
	}
	writeJSON(w, map[string]any{"queued": changes})
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.pub.WriteMetrics(w); err != nil {
		// Headers are gone; nothing useful to do beyond dropping the conn.
		return
	}
}

// statusRun is one stream's /status entry.
type statusRun struct {
	Run          string  `json:"run"`
	Epoch        uint64  `json:"epoch"`
	VirtualTimeS float64 `json:"virtual_time_s"`
	Events       uint64  `json:"events"`
	Dropped      uint64  `json:"dropped"`
	Snapshots    uint64  `json:"snapshots"`
}

// statusBody is the /status payload.
type statusBody struct {
	Phase        string      `json:"phase"`
	Health       string      `json:"health,omitempty"`
	Info         Info        `json:"info"`
	VirtualTimeS float64     `json:"virtual_time_s"`
	Runs         []statusRun `json:"runs"`
	Tenants      int         `json:"tenants"`
}

func (s *server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	st := s.pub.state()
	body := statusBody{Phase: st.Phase, Health: st.Health, Info: st.Info, Runs: []statusRun{}, Tenants: len(st.Tenants)}
	for _, r := range st.Streams {
		vt := float64(r.TimeNs) / 1e9
		if vt > body.VirtualTimeS {
			body.VirtualTimeS = vt
		}
		body.Runs = append(body.Runs, statusRun{
			Run:          r.Label,
			Epoch:        r.Epoch,
			VirtualTimeS: vt,
			Events:       r.Events,
			Dropped:      r.Dropped,
			Snapshots:    r.SnapshotsSeen,
		})
	}
	writeJSON(w, body)
}

// tenantBody is one tenant's /tenants entry.
type tenantBody struct {
	Tenant           string  `json:"tenant"`
	Resident         bool    `json:"resident"`
	ArrivedS         float64 `json:"arrived_s"`
	DepartedS        float64 `json:"departed_s"`
	GrantBytes       uint64  `json:"grant_bytes"`
	UsageBytes       uint64  `json:"usage_bytes"`
	FootprintBytes   uint64  `json:"footprint_bytes"`
	SlowdownPct      float64 `json:"slowdown_pct"`
	SLOPct           float64 `json:"slo_pct"`
	SLOSlackPct      float64 `json:"slo_slack_pct"`
	Ops              uint64  `json:"ops"`
	ColdPages        int     `json:"cold_pages"`
	QuarantinedPages int     `json:"quarantined_pages"`
}

func (s *server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	st := s.pub.state()
	out := []tenantBody{}
	for _, t := range st.Tenants {
		out = append(out, tenantBody{
			Tenant:           t.Name,
			Resident:         t.Resident,
			ArrivedS:         float64(t.ArrivedNs) / 1e9,
			DepartedS:        float64(t.DepartedNs) / 1e9,
			GrantBytes:       t.GrantBytes,
			UsageBytes:       t.Last.UsageBytes,
			FootprintBytes:   t.Last.FootprintBytes,
			SlowdownPct:      t.Last.SlowdownPct,
			SLOPct:           t.Last.SLOPct,
			SLOSlackPct:      t.Last.SLOPct - t.Last.SlowdownPct,
			Ops:              t.Last.Ops,
			ColdPages:        t.Last.ColdPages,
			QuarantinedPages: t.Last.QuarantinedPages,
		})
	}
	writeJSON(w, out)
}

func (s *server) handleDump(w http.ResponseWriter, r *http.Request) {
	what := r.URL.Query().Get("what")
	if what == "" {
		what = "accessed"
	}
	if what != "accessed" {
		http.Error(w, fmt.Sprintf("unknown dump %q (supported: accessed)", what), http.StatusBadRequest)
		return
	}
	maxPages := 0
	if n := r.URL.Query().Get("n"); n != "" {
		v, err := strconv.Atoi(n)
		if err != nil || v <= 0 {
			http.Error(w, fmt.Sprintf("bad n %q", n), http.StatusBadRequest)
			return
		}
		maxPages = v
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.pub.writeAccessedDump(w, maxPages) //nolint:errcheck // best-effort over HTTP
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}
