// Package targetserver hosts ce.Targets behind the paced HTTP/JSON
// service, turning in-process black boxes into the deployed estimators
// of PACE's threat model: attackers (and benign clients) reach them only
// over a real wire.
//
// Since the multi-tenant refactor the server is a thin HTTP layer over
// an internal/tenant.Registry — a directory of named estimator worlds,
// each owning its own model goroutine, micro-batching, bounded admission
// queues, per-client token buckets and optional estimate cache:
//
//	POST /v1/targets/{id}/estimate   routed estimates, single or batch
//	POST /v1/targets/{id}/execute    routed executed-query feedback, one
//	                                 retrain per call, idempotent per
//	                                 X-Pace-Execute-Token
//	GET  /v1/targets/{id}/healthz    one tenant's readiness
//	POST /v1/targets                 provision a tenant at runtime
//	DELETE /v1/targets/{id}          drain and destroy a tenant
//	GET  /v1/targets                 directory listing
//	GET  /healthz                    overall + per-tenant readiness
//	GET  /metrics                    tenant-labeled paced_* families
//
// Client identity: when Config.AuthTokens is set, the identity used for
// per-tenant rate limiting is derived from the Authorization bearer
// token — the X-Pace-Client header is no longer trusted (it is trivially
// spoofable). Without tokens the header (then the peer host) is used, as
// before.
//
// Shutdown drains gracefully: /healthz flips to 503 so load balancers
// stop routing, in-flight requests on every tenant finish — the drain
// iterates the whole registry — and only then do the model goroutines
// exit.
package targetserver

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"pace/internal/ce"
	"pace/internal/httpserve"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// Config tunes the service. The zero value serves with sane defaults.
// The per-tenant serving knobs (MaxBatch … Burst) apply to every tenant
// the server hosts.
type Config struct {
	// MaxBatch is the largest number of queries a tenant's model
	// goroutine evaluates per micro-batch (default 64). Requests larger
	// than wire.MaxBatch are rejected outright.
	MaxBatch int
	// QueueDepth bounds each tenant's estimate admission queue in
	// requests (default 128). A full queue sheds with 429.
	QueueDepth int
	// ExecQueueDepth bounds each tenant's execute (retraining feedback)
	// queue (default 8).
	ExecQueueDepth int
	// RatePerSec and Burst configure the per-client token bucket of each
	// tenant; RatePerSec 0 disables rate limiting.
	RatePerSec float64
	Burst      int
	// RetryAfter is the backoff hint sent with every 429/503 (default
	// 1s; rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// MaxTenants caps how many tenants this host admits (live,
	// provisioning or evicted); creates beyond it answer 429
	// quota_exceeded. 0 = unlimited.
	MaxTenants int
	// MaxPerOwner caps how many tenants one authenticated client may
	// provision; 0 = unlimited.
	MaxPerOwner int
	// IdleAfter enables the idle-eviction janitor: tenants that serve no
	// request for this long are drained and their spec spilled; the next
	// request (or an explicit revive) rebuilds them. 0 disables eviction.
	IdleAfter time.Duration
	// AuthTokens, when non-empty, maps bearer tokens to client names.
	// Requests must then carry "Authorization: Bearer <token>"; unknown
	// or missing tokens answer 401 and the mapped name replaces the
	// spoofable X-Pace-Client header for rate limiting.
	AuthTokens map[string]string
	// Codecs restricts which data-path codecs the server speaks
	// ("json", "binary"). Empty means both. Requests carrying a
	// disabled codec's Content-Type answer 415 unsupported_media, and
	// Accept headers asking for a disabled codec fall back to JSON.
	Codecs []string
	// Factory provisions tenants for POST /v1/targets (typically
	// experiments.TenantFactory()). Nil disables runtime creation.
	Factory tenant.Factory
	// Telemetry instruments the service (tenant-labeled paced_*
	// counters, latency and batch-size histograms, queue gauges) and,
	// when it carries a registry, mounts /metrics and /debug/pprof.
	Telemetry *obs.Telemetry
	// SLOTarget is the per-request latency objective behind the
	// per-tenant burn-rate gauge (default 100ms): a data-path request
	// slower than this — or failing — burns error budget.
	SLOTarget time.Duration
	// SLOObjective is the target fraction of requests within SLOTarget
	// (default 0.99).
	SLOObjective float64
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxBatch > wire.MaxBatch {
		c.MaxBatch = wire.MaxBatch
	}
	return c
}

// TenantConfig projects the per-tenant serving knobs onto a
// tenant.Config — what cmd/paced builds its boot registry with.
func (c Config) TenantConfig() tenant.Config {
	return tenant.Config{
		MaxBatch:       c.MaxBatch,
		QueueDepth:     c.QueueDepth,
		ExecQueueDepth: c.ExecQueueDepth,
		RatePerSec:     c.RatePerSec,
		Burst:          c.Burst,
		MaxTenants:     c.MaxTenants,
		MaxPerOwner:    c.MaxPerOwner,
		Telemetry:      c.Telemetry,
	}
}

// Server is one hosted estimator service instance: an HTTP front over a
// tenant registry.
type Server struct {
	cfg  Config
	reg  *tenant.Registry
	core *httpserve.Server

	// codecs is the enabled codec set by name ("json", "binary").
	codecs map[string]bool

	// Server-level instruments (tenant-level ones live on each tenant);
	// all nil-safe no-ops without telemetry.
	mUnknownTarget *obs.Counter
	mAdminReqs     *obs.Counter
	mQuotaDenied   *obs.Counter
	mEvicted       *obs.Counter
	mRevived       *obs.Counter
	mTenants       *obs.Gauge
}

// New builds a single-tenant server: target becomes the "default"
// tenant, reachable at /v1/targets/default/... Callers must eventually
// call Shutdown (or Close) even when they never Start a listener — the
// handler form used with httptest still owns the model goroutine.
// Runtime tenant creation needs cfg.Factory.
func New(target ce.Target, meta *query.Meta, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := tenant.NewRegistry(cfg.Factory, cfg.TenantConfig())
	if _, err := reg.Add(tenant.Spec{ID: httpserve.DefaultTenant}, target, meta); err != nil {
		panic("targetserver: registering default tenant: " + err.Error()) // fresh registry: unreachable
	}
	return NewMulti(reg, cfg)
}

// NewMulti builds a server over an existing registry — the multi-tenant
// form cmd/paced uses: boot tenants are Added/Created on the registry
// first, and the admin API keeps mutating it at runtime.
func NewMulti(reg *tenant.Registry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, reg: reg}
	s.codecs = map[string]bool{}
	if len(cfg.Codecs) == 0 {
		s.codecs["json"], s.codecs["binary"] = true, true
	} else {
		for _, name := range cfg.Codecs {
			if c, ok := wire.CodecByName(name); ok {
				s.codecs[c.Name()] = true
			}
		}
	}
	s.instrument(cfg.Telemetry.Registry())
	s.core = httpserve.New(httpserve.Config{
		Name: "targetserver", Metrics: "paced", Span: "srv", Realm: "paced", Noun: "server",
		ShedStatus: http.StatusTooManyRequests,
		AuthTokens: cfg.AuthTokens, RetryAfter: cfg.RetryAfter, Telemetry: cfg.Telemetry,
		SLOTarget: cfg.SLOTarget, SLOObjective: cfg.SLOObjective,
	})
	s.core.MountData(httpserve.DataRoutes{Estimate: s.handleEstimate, Execute: s.handleExecute})
	s.core.HandleFunc("GET /v1/targets/{id}/healthz", s.handleTenantHealthz)
	s.core.HandleFunc("POST /v1/targets", s.handleCreateTarget)
	s.core.HandleFunc("DELETE /v1/targets/{id}", s.handleDeleteTarget)
	s.core.HandleFunc("GET /v1/targets", s.handleListTargets)
	s.core.HandleFunc("GET /healthz", s.handleHealthz)
	if cfg.Telemetry.Registry() != nil {
		s.core.HandleFunc("/debug/pprof/", pprof.Index)
		s.core.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.core.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.core.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.core.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mTenants.Set(int64(reg.Len()))
	if cfg.IdleAfter > 0 {
		s.core.Janitor(cfg.IdleAfter, s.evictIdle)
	}
	return s
}

// evictIdle is the janitor's sweep: tenants idle past Config.IdleAfter
// are drained and their specs spilled for lazy revival on the next
// request.
func (s *Server) evictIdle() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	evicted := s.reg.EvictIdle(ctx, s.cfg.IdleAfter)
	cancel()
	if len(evicted) > 0 {
		s.mEvicted.Add(int64(len(evicted)))
		s.mTenants.Set(int64(s.reg.Len()))
	}
}

func (s *Server) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.mUnknownTarget = reg.Counter("paced_unknown_target_total")
	s.mAdminReqs = reg.Counter("paced_admin_requests_total")
	s.mQuotaDenied = reg.Counter("paced_quota_denied_total")
	s.mEvicted = reg.Counter("paced_evicted_total")
	s.mRevived = reg.Counter("paced_revived_total")
	s.mTenants = reg.Gauge("paced_tenants")
}

// Registry exposes the tenant directory (cmd/paced boot, tests).
func (s *Server) Registry() *tenant.Registry { return s.reg }

// Handler exposes the service mux (for httptest or custom listeners).
func (s *Server) Handler() http.Handler { return s.core.Handler() }

// Start binds addr (host:port; port 0 picks an ephemeral one) and
// serves in the background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) { return s.core.Start(addr) }

// Shutdown drains gracefully: new requests are refused (healthz 503,
// v1 endpoints 503 draining), in-flight requests on every tenant
// complete — the drain iterates the whole registry, so a multi-tenant
// host answers each tenant's queued jobs before exiting — and then the
// model goroutines stop. ctx bounds the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	return errors.Join(s.core.Shutdown(ctx), s.reg.DrainAll(ctx))
}

// Kill abruptly stops serving — the listener closes and in-flight
// connections are torn down with no drain. It simulates a crashed
// backend (the integration-test stand-in for SIGKILL); the registry and
// its model goroutines are intentionally left unreclaimed, exactly like
// a dead process's state.
func (s *Server) Kill() { s.core.Kill() }

// Close is Shutdown with a short drain bound.
func (s *Server) Close() error { return httpserve.Close(s.Shutdown) }

// resolve routes an id to its tenant, answering the error itself (404
// unknown, 503 not ready / draining / evicted) when it cannot. A hit on
// an evicted tenant triggers lazy revival in the background and tells
// the client to retry — by the time a well-behaved client comes back,
// the world is rebuilt (bit-identically, by spec construction).
func (s *Server) resolve(w http.ResponseWriter, id string) (*tenant.Tenant, bool) {
	t, err := s.reg.Get(id)
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		s.mUnknownTarget.Inc()
		httpserve.WriteError(w, http.StatusNotFound, wire.CodeUnknownTarget, err.Error())
		return nil, false
	case errors.Is(err, tenant.ErrEvicted):
		go s.reviveAsync(id)
		s.core.Refuse(w, http.StatusServiceUnavailable, wire.CodeEvicted, err.Error())
		return nil, false
	case errors.Is(err, tenant.ErrNotReady):
		s.core.Refuse(w, http.StatusServiceUnavailable, wire.CodeNotReady, err.Error())
		return nil, false
	case err != nil:
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return nil, false
	}
	if t.Draining() {
		httpserve.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, "tenant "+id+" draining")
		return nil, false
	}
	return t, true
}

// reviveAsync rebuilds an evicted tenant off the request path. Losing a
// race is fine — Revive coalesces concurrent revivals on the creating
// slot, so at most one world build runs per id.
func (s *Server) reviveAsync(id string) {
	if _, err := s.reg.Revive(context.Background(), id); err == nil {
		s.mRevived.Inc()
		s.mTenants.Set(int64(s.reg.Len()))
	}
}

// dataCodecs negotiates one data-path exchange's codecs: the request
// body's from Content-Type, the response's from Accept. Disabled or
// unknown request codecs answer 415 unsupported_media; a response-side
// ask the server cannot honor silently falls back to JSON.
func (s *Server) dataCodecs(w http.ResponseWriter, r *http.Request) (reqC, respC wire.Codec, ok bool) {
	reqC, known := wire.CodecForContentType(r.Header.Get("Content-Type"))
	if !known || !s.codecs[reqC.Name()] {
		httpserve.WriteError(w, http.StatusUnsupportedMediaType, wire.CodeUnsupportedMedia,
			fmt.Sprintf("unsupported Content-Type %q", r.Header.Get("Content-Type")))
		return nil, nil, false
	}
	respC = wire.JSON
	if wire.AcceptsBinary(r.Header.Get("Accept")) && s.codecs["binary"] {
		respC = wire.Binary
	}
	return reqC, respC, true
}

// decodeError maps a codec decode failure onto the wire: rejected
// binary frames get their own machine-readable code.
func (s *Server) decodeError(w http.ResponseWriter, err error) {
	code := wire.CodeBadRequest
	if errors.Is(err, wire.ErrBadFrame) {
		code = wire.CodeBadFrame
	}
	httpserve.WriteError(w, http.StatusBadRequest, code, err.Error())
}

// admitData runs the shared data-path preamble: drain gate, identity,
// tenant resolution and per-client admission.
func (s *Server) admitData(w http.ResponseWriter, r *http.Request, id string) (*tenant.Tenant, bool) {
	if s.core.RefuseDraining(w) {
		return nil, false
	}
	client, ok := s.core.ClientIdentity(w, r)
	if !ok {
		return nil, false
	}
	t, ok := s.resolve(w, id)
	if !ok {
		return nil, false
	}
	if !t.Admit(client) {
		s.core.Shed(w, wire.CodeRateLimited, "client "+client+" over rate limit")
		return nil, false
	}
	return t, true
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request, id string) {
	reqC, respC, ok := s.dataCodecs(w, r)
	if !ok {
		return
	}
	t, ok := s.admitData(w, r, id)
	if !ok {
		return
	}
	raw, ok := httpserve.ReadBody(w, r)
	if !ok {
		return
	}
	req, err := reqC.DecodeEstimateRequest(raw)
	if err != nil {
		s.decodeError(w, err)
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > wire.MaxBatch {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("request must carry 1..%d queries, got %d", wire.MaxBatch, len(req.Queries)))
		return
	}
	qs, err := wire.DecodeQueries(t.Meta(), req.Queries)
	if err != nil {
		t.Metrics().Invalid.Inc()
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeInvalidQuery, err.Error())
		return
	}

	ests, err := t.Estimate(r.Context(), qs)
	if err != nil {
		s.replyError(w, t, err)
		return
	}
	resp := wire.EstimateResponse{V: wire.Version, Estimates: wire.FromFloats(ests)}
	if blob, err := respC.EncodeEstimateResponse(&resp); err == nil {
		writeRaw(w, http.StatusOK, respC.ContentType(), blob)
	} else {
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
	}
}

// handleExecute applies one executed workload as one retrain. An
// X-Pace-Execute-Token header makes the call idempotent: the tenant acks
// a token it has already applied without retraining again.
func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request, id string) {
	reqC, respC, ok := s.dataCodecs(w, r)
	if !ok {
		return
	}
	token := r.Header.Get(wire.ExecuteTokenHeader)
	if token != "" && !wire.ValidExecutionToken(token) {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("%s must be 1..%d URL-safe chars", wire.ExecuteTokenHeader, wire.MaxExecutionToken))
		return
	}
	t, ok := s.admitData(w, r, id)
	if !ok {
		return
	}
	raw, ok := httpserve.ReadBody(w, r)
	if !ok {
		return
	}
	req, err := reqC.DecodeExecuteRequest(raw)
	if err != nil {
		s.decodeError(w, err)
		return
	}
	if len(req.Queries) == 0 || len(req.Queries) > wire.MaxBatch || len(req.Queries) != len(req.Cards) {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			fmt.Sprintf("want 1..%d queries with matching cards, got %d queries / %d cards",
				wire.MaxBatch, len(req.Queries), len(req.Cards)))
		return
	}
	qs, err := wire.DecodeQueries(t.Meta(), req.Queries)
	if err != nil {
		t.Metrics().Invalid.Inc()
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeInvalidQuery, err.Error())
		return
	}

	if err := t.Execute(r.Context(), token, qs, wire.ToFloats(req.Cards)); err != nil {
		s.replyError(w, t, err)
		return
	}
	resp := wire.ExecuteResponse{V: wire.Version, Executed: len(qs)}
	if blob, err := respC.EncodeExecuteResponse(&resp); err == nil {
		writeRaw(w, http.StatusOK, respC.ContentType(), blob)
	} else {
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
	}
}

// handleCreateTarget provisions a tenant through the registry's Factory.
// The request blocks for the whole world build; concurrent creates of
// the same id answer 409 immediately (the slot lists as "creating").
func (s *Server) handleCreateTarget(w http.ResponseWriter, r *http.Request) {
	s.mAdminReqs.Inc()
	if s.core.RefuseDraining(w) {
		return
	}
	client, ok := s.core.ClientIdentity(w, r)
	if !ok {
		return
	}
	var req wire.CreateTargetRequest
	if !s.core.DecodeRequest(w, r, &req) {
		return
	}
	t, err := s.reg.Create(r.Context(), tenant.Spec{
		ID:         req.Target.ID,
		Dataset:    req.Target.Dataset,
		Model:      req.Target.Model,
		Seed:       req.Target.Seed,
		SeedOffset: req.Target.SeedOffset,
		Scale:      req.Target.Scale,
		CacheSize:  req.Target.CacheSize,
		// Owner is stamped from the authenticated identity, never taken
		// off the wire — per-owner quotas count what a token actually
		// provisioned, not what it claims.
		Owner: client,
	})
	switch {
	case errors.Is(err, tenant.ErrExists):
		httpserve.WriteError(w, http.StatusConflict, wire.CodeTargetExists, err.Error())
		return
	case errors.Is(err, tenant.ErrQuota):
		s.mQuotaDenied.Inc()
		s.core.Refuse(w, http.StatusTooManyRequests, wire.CodeQuotaExceeded, err.Error())
		return
	case errors.Is(err, tenant.ErrDraining):
		httpserve.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, err.Error())
		return
	case errors.Is(err, tenant.ErrCreatePanic):
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return // the admin hung up mid-build; nobody is reading
	case err != nil:
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	s.mTenants.Set(int64(s.reg.Len()))
	httpserve.WriteJSON(w, http.StatusOK, wire.CreateTargetResponse{
		V:      wire.Version,
		Target: targetInfo(tenant.Info{Spec: t.Spec(), State: tenant.StateReady}),
	})
}

func (s *Server) handleDeleteTarget(w http.ResponseWriter, r *http.Request) {
	s.mAdminReqs.Inc()
	if _, ok := s.core.ClientIdentity(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	err := s.reg.Delete(r.Context(), id)
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		s.mUnknownTarget.Inc()
		httpserve.WriteError(w, http.StatusNotFound, wire.CodeUnknownTarget, err.Error())
		return
	case errors.Is(err, tenant.ErrNotReady):
		s.core.Refuse(w, http.StatusServiceUnavailable, wire.CodeNotReady, err.Error())
		return
	case err != nil:
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	}
	s.mTenants.Set(int64(s.reg.Len()))
	httpserve.WriteJSON(w, http.StatusOK, wire.DeleteTargetResponse{V: wire.Version, Deleted: id})
}

func (s *Server) handleListTargets(w http.ResponseWriter, r *http.Request) {
	s.mAdminReqs.Inc()
	if _, ok := s.core.ClientIdentity(w, r); !ok {
		return
	}
	infos := s.reg.List()
	resp := wire.ListTargetsResponse{V: wire.Version, Targets: make([]wire.TargetInfo, len(infos))}
	for i, info := range infos {
		resp.Targets[i] = targetInfo(info)
	}
	httpserve.WriteJSON(w, http.StatusOK, resp)
}

func targetInfo(info tenant.Info) wire.TargetInfo {
	return wire.TargetInfo{
		TargetSpec: wire.TargetSpec{
			ID:         info.Spec.ID,
			Dataset:    info.Spec.Dataset,
			Model:      info.Spec.Model,
			Seed:       info.Spec.Seed,
			SeedOffset: info.Spec.SeedOffset,
			Scale:      info.Spec.Scale,
			CacheSize:  info.Spec.CacheSize,
		},
		State: info.State,
	}
}

// handleHealthz reports overall service health (503 while draining) and
// every tenant's readiness, so each tenant is observable independently.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := wire.HealthzResponse{Status: "ok", Tenants: map[string]string{}}
	for _, info := range s.reg.List() {
		resp.Tenants[info.Spec.ID] = info.State
	}
	status := http.StatusOK
	if s.core.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	httpserve.WriteJSON(w, status, resp)
}

// handleTenantHealthz is the per-tenant readiness probe: 200 only when
// the tenant exists and is ready.
func (s *Server) handleTenantHealthz(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.core.RefuseDraining(w) {
		return
	}
	if _, ok := s.resolve(w, id); !ok {
		return
	}
	httpserve.WriteJSON(w, http.StatusOK, wire.HealthzResponse{
		Status:  "ok",
		Tenants: map[string]string{id: tenant.StateReady},
	})
}

// replyError maps a tenant-side error onto the wire: shed admission is
// a 429, draining a 503, invalid queries the client's fault (400), and
// everything else an internal failure.
func (s *Server) replyError(w http.ResponseWriter, t *tenant.Tenant, err error) {
	switch {
	case errors.Is(err, tenant.ErrQueueFull):
		s.core.Shed(w, wire.CodeOverloaded, err.Error())
	case errors.Is(err, tenant.ErrDraining):
		httpserve.WriteError(w, http.StatusServiceUnavailable, wire.CodeDraining, err.Error())
	case errors.Is(err, ce.ErrInvalidQuery):
		t.Metrics().Invalid.Inc()
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeInvalidQuery, err.Error())
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The request context died mid-evaluation; nobody is reading.
	default:
		t.Metrics().Errors.Inc()
		httpserve.WriteError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
	}
}

// writeRaw ships a pre-encoded data-path response in its codec's
// Content-Type.
func writeRaw(w http.ResponseWriter, status int, contentType string, blob []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	w.Write(blob) //nolint:errcheck // client hang-ups are its problem
}
