package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// TelemetryServer exposes the observability surface over HTTP while the
// engine runs: GET /metrics serves the Prometheus text exposition,
// GET /debug/queries the live active-query table plus recent journal
// records as JSON, GET /healthz a liveness probe, and (when enabled)
// /debug/pprof/* the Go runtime profiles. The server is opt-in (nothing
// listens unless asked) and reads registry/journal/active-set state through
// the same synchronized snapshot paths queries write through, so scraping
// during a query storm is race-free.
type TelemetryServer struct {
	cfg TelemetryConfig
	ln  net.Listener
	srv *http.Server
}

// TelemetryConfig selects what a telemetry server exposes. Registry is
// required; Active and Journal light up /debug/queries; EnablePprof gates
// the net/http/pprof handlers (off by default — heap and CPU profiles leak
// more than metrics do, so exposing them is an explicit choice).
type TelemetryConfig struct {
	Registry    *Registry
	Active      *ActiveSet
	Journal     *Journal
	EnablePprof bool
}

// ServeTelemetryWith starts a telemetry server with the configured surface on
// addr (host:port; port 0 picks a free port — use Addr to discover it). The
// server runs in a background goroutine until Close.
func ServeTelemetryWith(addr string, cfg TelemetryConfig) (*TelemetryServer, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("obs: telemetry needs a registry")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	t := &TelemetryServer{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", t.handleMetrics)
	mux.HandleFunc("/debug/queries", t.handleQueries)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	t.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = t.srv.Serve(ln) }()
	return t, nil
}

func (t *TelemetryServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", PrometheusContentType)
	// Render to a buffer first so a slow client cannot hold the registry
	// lock, and a write error cannot emit a torn exposition.
	body := t.cfg.Registry.RenderPrometheus()
	_, _ = w.Write([]byte(body))
}

// QueriesSnapshot is the /debug/queries response body.
type QueriesSnapshot struct {
	Active  []ActiveQuery `json:"active"`
	Journal struct {
		Total    int64 `json:"total"`
		OK       int64 `json:"ok"`
		Shed     int64 `json:"shed"`
		Canceled int64 `json:"canceled"`
		Error    int64 `json:"error"`
	} `json:"journal"`
	Recent []QueryRecord `json:"recent"` // newest-last tail of the journal
}

// recentTail bounds the journal tail returned by /debug/queries.
const recentTail = 32

func (t *TelemetryServer) handleQueries(w http.ResponseWriter, _ *http.Request) {
	var snap QueriesSnapshot
	snap.Active = t.cfg.Active.Snapshot()
	if snap.Active == nil {
		snap.Active = []ActiveQuery{}
	}
	snap.Recent = t.cfg.Journal.Tail(recentTail)
	if snap.Recent == nil {
		snap.Recent = []QueryRecord{}
	}
	snap.Journal.Total = t.cfg.Journal.Total()
	snap.Journal.OK = t.cfg.Journal.OutcomeCount(OutcomeOK)
	snap.Journal.Shed = t.cfg.Journal.OutcomeCount(OutcomeShed)
	snap.Journal.Canceled = t.cfg.Journal.OutcomeCount(OutcomeCanceled)
	snap.Journal.Error = t.cfg.Journal.OutcomeCount(OutcomeError)
	body, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(body, '\n'))
}

// Addr returns the bound listen address (resolves port 0).
func (t *TelemetryServer) Addr() string { return t.ln.Addr().String() }

// URL returns the scrape URL of the metrics endpoint.
func (t *TelemetryServer) URL() string { return "http://" + t.Addr() + "/metrics" }

// Close stops the listener and in-flight handlers.
func (t *TelemetryServer) Close() error { return t.srv.Close() }
