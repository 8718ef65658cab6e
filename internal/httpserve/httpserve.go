// Package httpserve is the HTTP plumbing the paced estimator service
// (internal/targetserver) and the pacerouter fleet front
// (internal/router) share. Both speak the same wire, so everything
// around their route handlers lives here once:
//
//   - the data-path preamble: X-Pace-Trace extraction, the srv_* or
//     proxy_* span, and per-(route, tenant) RED metrics with the
//     tenant's SLO burn;
//   - the data routes both servers mount the same way (MountData):
//     the routed estimate and execute;
//   - bearer-token auth and the client identity it derives;
//   - drain state, the listener, background loops and the idle janitor;
//   - error, JSON and shed replies, bounded body reads and versioned
//     JSON request decoding, plus the /metrics mount.
//
// The two servers differ only in values — metric prefix, auth realm,
// the noun in messages, the shed status — which Config carries. The
// package knows nothing of tenants or backends: it imports neither
// internal/tenant nor either server, so pacerouter does not link paced.
package httpserve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pace/internal/obs"
	"pace/internal/wire"
)

// DefaultTenant is the tenant a single-target server hosts, and the one
// a client addresses when it names none.
const DefaultTenant = "default"

// Config holds the values that tell the two servers apart.
type Config struct {
	// Name prefixes listen errors and log lines ("targetserver",
	// "router").
	Name string
	// Metrics prefixes every metric family this package registers
	// ("paced", "router").
	Metrics string
	// Span prefixes data-route span names ("srv", "proxy").
	Span string
	// Realm is the WWW-Authenticate realm of 401 replies ("paced",
	// "pacerouter").
	Realm string
	// Noun names the service in draining and version replies ("server",
	// "router").
	Noun string
	// ShedStatus is the status of Shed replies: 429 for paced's
	// admission control, 503 for the router's retryable unavailability.
	ShedStatus int
	// CountShed counts Shed replies in <Metrics>_shed_total.
	CountShed bool
	// AuthTokens, when non-empty, maps bearer tokens to client names and
	// makes ClientIdentity demand one.
	AuthTokens map[string]string
	// RetryAfter is the backoff hint of every Shed and Refuse reply
	// (default 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// Telemetry carries the tracer and the metrics registry; without a
	// registry nothing is metered and /metrics is not mounted.
	Telemetry *obs.Telemetry
	// SLOTarget is the per-request latency objective behind the
	// per-tenant burn-rate gauge (default 100ms).
	SLOTarget time.Duration
	// SLOObjective is the target fraction of requests within SLOTarget
	// (default 0.99).
	SLOObjective float64
}

// Server is one service's mux plus the state every route shares.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu       sync.Mutex
	draining bool
	httpSrv  *http.Server
	done     chan struct{} // closed when Shutdown begins
	loops    sync.WaitGroup

	// All nil-safe no-ops without a registry.
	mUnauthorized *obs.Counter
	mShed         *obs.Counter
	mDraining     *obs.Gauge

	// Per-(route, tenant) RED instruments and per-tenant SLO trackers,
	// created lazily on first request.
	redMu sync.Mutex
	reds  map[string]*obs.RED
	slos  map[string]*obs.SLO
}

// New builds a server with an empty mux, mounting /metrics when the
// telemetry carries a registry.
func New(cfg Config) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.SLOTarget <= 0 {
		cfg.SLOTarget = 100 * time.Millisecond
	}
	if cfg.SLOObjective <= 0 {
		cfg.SLOObjective = 0.99
	}
	s := &Server{
		cfg:  cfg,
		mux:  http.NewServeMux(),
		done: make(chan struct{}),
		reds: map[string]*obs.RED{},
		slos: map[string]*obs.SLO{},
	}
	if reg := cfg.Telemetry.Registry(); reg != nil {
		s.mUnauthorized = reg.Counter(cfg.Metrics + "_unauthorized_total")
		s.mDraining = reg.Gauge(cfg.Metrics + "_draining")
		if cfg.CountShed {
			s.mShed = reg.Counter(cfg.Metrics + "_shed_total")
		}
		s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			reg.WritePrometheus(w) //nolint:errcheck // best-effort scrape
		})
	}
	return s
}

// HandleFunc registers one route on the mux.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Handler exposes the mux (for httptest or custom listeners).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (host:port; port 0 picks an ephemeral one) and
// serves in the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen: %w", s.cfg.Name, err)
	}
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	go s.httpSrv.Serve(ln) //nolint:errcheck // Serve always errors on Shutdown
	return ln.Addr().String(), nil
}

// Go runs loop in the background until Shutdown, which closes Done and
// waits for loop to return.
func (s *Server) Go(loop func()) {
	s.loops.Add(1)
	go func() {
		defer s.loops.Done()
		loop()
	}()
}

// Done is closed when Shutdown begins.
func (s *Server) Done() <-chan struct{} { return s.done }

// Janitor runs sweep in the background every quarter of idleAfter,
// clamped to [10ms, 30s], until Shutdown.
func (s *Server) Janitor(idleAfter time.Duration, sweep func()) {
	period := min(max(idleAfter/4, 10*time.Millisecond), 30*time.Second)
	s.Go(func() {
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				sweep()
			}
		}
	})
}

// Shutdown flips the server to draining — from now on RefuseDraining
// refuses — and, on the first call only, stops the background loops and
// the listener: in-flight requests finish within ctx, new connections
// are refused. Later calls return nil at once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.mDraining.Set(1)
	if already {
		return nil
	}
	close(s.done)
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.loops.Wait()
	return err
}

// Close runs shutdown under the short drain bound both servers' Close
// methods promise.
func Close(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return shutdown(ctx)
}

// Kill abruptly closes the listener and every open connection, with no
// drain.
func (s *Server) Kill() {
	if s.httpSrv != nil {
		s.httpSrv.Close() //nolint:errcheck // abrupt death: errors are the point
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// RefuseDraining answers 503 draining, and reports true, once Shutdown
// has begun.
func (s *Server) RefuseDraining(w http.ResponseWriter) bool {
	if !s.Draining() {
		return false
	}
	WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, s.cfg.Noun+" draining")
	return true
}

// DataRoutes are one server's data-plane handlers; id is the tenant the
// request routes to.
type DataRoutes struct {
	Estimate, Execute func(w http.ResponseWriter, r *http.Request, id string)
}

// MountData registers the routed data routes,
// POST /v1/targets/{id}/estimate and /v1/targets/{id}/execute. Each is
// metered per (route, tenant) and spanned <Span>_<route> under a traced
// caller.
func (s *Server) MountData(d DataRoutes) {
	for route, fn := range map[string]func(http.ResponseWriter, *http.Request, string){
		"estimate": d.Estimate, "execute": d.Execute,
	} {
		s.mux.HandleFunc("POST /v1/targets/{id}/"+route, func(w http.ResponseWriter, r *http.Request) {
			s.serveData(w, r, r.PathValue("id"), route, fn)
		})
	}
}

// serveData wraps one data-path handler with the observability
// preamble: trace extraction (an X-Pace-Trace header makes this hop's
// work parent under the remote caller's span) and per-(route, tenant) RED
// accounting with the tenant's SLO burn and a slow-request exemplar
// carrying the trace ID.
// Requests without the header are never spanned, which keeps trace
// structure a pure function of the instrumented client's behaviour.
func (s *Server) serveData(w http.ResponseWriter, r *http.Request, id, route string, fn func(http.ResponseWriter, *http.Request, string)) {
	ctx := obs.NewContext(r.Context(), s.cfg.Telemetry)
	var sp *obs.Span
	if tp := r.Header.Get(wire.TraceHeader); tp != "" {
		if trace, span, ok := obs.ParseTraceParent(tp); ok {
			ctx = obs.ContextWithRemoteParent(ctx, trace, span)
			ctx, sp = obs.StartSpan(ctx, s.cfg.Span+"_"+route, obs.String("tenant", id))
		}
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	fn(sw, r.WithContext(ctx), id)
	sp.End()
	s.red(route, id).Observe(time.Since(start).Seconds(), sw.status >= 500, obs.TraceIDFrom(ctx))
}

// statusWriter captures the response status for RED error accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// red returns the (route, tenant) RED bundle, creating it — and the
// tenant's shared SLO tracker — on first use. nil (all methods no-op)
// without a metrics registry.
func (s *Server) red(route, id string) *obs.RED {
	reg := s.cfg.Telemetry.Registry()
	if reg == nil {
		return nil
	}
	key := route + "\x00" + id
	s.redMu.Lock()
	defer s.redMu.Unlock()
	if m, ok := s.reds[key]; ok {
		return m
	}
	slo, ok := s.slos[id]
	if !ok {
		slo = obs.NewSLO(reg, fmt.Sprintf("%s_slo_burn_rate_permille{tenant=%q}", s.cfg.Metrics, id),
			s.cfg.SLOTarget, s.cfg.SLOObjective)
		s.slos[id] = slo
	}
	m := obs.NewRED(reg, s.cfg.Metrics+"_http", route, id, slo)
	s.reds[key] = m
	return m
}

// ReadBody slurps a request body bounded by wire.MaxBody, answering 400
// itself when it cannot.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, wire.MaxBody))
	if err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading body: "+err.Error())
		return nil, false
	}
	return raw, true
}

// DecodeRequest strictly decodes a JSON target-create request into dst
// and checks its protocol version, answering 400 itself when either
// fails.
func (s *Server) DecodeRequest(w http.ResponseWriter, r *http.Request, dst *wire.CreateTargetRequest) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "malformed body: "+err.Error())
		return false
	}
	if dst.V != wire.Version {
		WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("protocol version %d, %s speaks %d", dst.V, s.cfg.Noun, wire.Version))
		return false
	}
	return true
}

// Shed answers an admission refusal with Config.ShedStatus and the
// Retry-After hint a well-behaved client backs off on.
func (s *Server) Shed(w http.ResponseWriter, code, msg string) {
	s.mShed.Inc()
	s.Refuse(w, s.cfg.ShedStatus, code, msg)
}

// Refuse answers a retryable refusal: status plus the Retry-After hint
// the client-side resilience layer honors.
func (s *Server) Refuse(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Retry-After", wire.RetryAfter(s.cfg.RetryAfter))
	WriteError(w, status, code, msg)
}

// WriteError answers a wire.ErrorResponse.
func WriteError(w http.ResponseWriter, status int, code, msg string) {
	WriteJSON(w, status, wire.ErrorResponse{V: wire.Version, Code: code, Error: msg})
}

// WriteJSON answers body as JSON.
func WriteJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client hang-ups are its problem
}
