// Package router implements pacerouter: a reverse proxy that places
// tenants (hosted estimator worlds) across a fleet of paced backends
// and keeps them reachable when backends die.
//
// Placement is rendezvous hashing over the up backends — consulted once
// at (re)create time; afterwards the placement map is authoritative, so
// a recovering backend never steals tenants back. Each backend is
// actively health-checked (GET /healthz through a circuit breaker:
// FailThreshold consecutive failures mark it down, the breaker cooldown
// is the down window, a half-open probe success marks it back up). When
// a backend dies, every tenant placed on it flips to "rebuilding" and
// is re-provisioned on a surviving backend from its stored spec — the
// fixed (dataset, model, seed) spec rebuilds the world bit-identically
// — and the router's execute journal is replayed in order to restore
// the retraining state exactly. Until the rebuild lands, requests for
// the tenant answer 503 + Retry-After, which the retry layer in
// internal/remote + internal/resilience rides through.
//
// Exactly-once journaling: an execute body is appended to the journal
// only after the hosting backend acked it with 200, under a per-tenant
// lock held across send→ack→append. In the crash case this is exact —
// an unacked in-flight execute is not journaled AND the dead backend's
// state is discarded wholesale, so the client's retry applies the batch
// once to the rebuilt world. (A transport glitch on a *healthy* backend
// can still double-apply on retry, as with any at-least-once HTTP call;
// the bit-exactness contract covers the crash-failover path.)
//
// Admission hardening mirrors paced's: a fleet-wide tenant cap and
// per-client provisioning quotas answer 429 quota_exceeded on POST
// /v1/targets, and idle tenants are evicted from their backend (spec
// and journal spilled in the router) and lazily revived — rebuilt
// bit-identically — on their next request.
package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/httpserve"
	"pace/internal/obs"
	"pace/internal/remote"
	"pace/internal/resilience"
	"pace/internal/wire"
)

// Tenant entry states as reported on /healthz and /v1/fleet. "ready" is
// the string remote.Admin.WaitReady polls for, so the router's healthz
// is drop-in compatible with paced's.
const (
	StateCreating   = "creating"
	StateReady      = "ready"
	StateRebuilding = "rebuilding"
	StateEvicted    = "evicted"
)

// routerClient is the X-Pace-Client identity the router uses for its
// own fleet housekeeping (journal replay, stale-tenant GC) so backend
// rate limiting and logs can tell it apart from proxied client traffic.
const routerClient = "pacerouter"

// Config tunes the router. The zero value is not usable — Backends is
// required — but every other field has a sane default.
type Config struct {
	// Backends lists the paced base URLs forming the fleet, e.g.
	// "http://127.0.0.1:8645". Scheme-less entries get http://.
	Backends []string
	// AuthToken, when set, is forwarded to backends as a bearer token —
	// the fleet's members run with -auth-tokens and trust only the
	// router. Client identity still travels in X-Pace-Client.
	AuthToken string
	// AuthTokens, when non-empty, makes the router itself demand bearer
	// auth from its clients (same file format as paced -auth-tokens);
	// the mapped name becomes the spoof-proof identity for quotas.
	AuthTokens map[string]string
	// RetryAfter is the backoff hint sent with every router-originated
	// 429/503 (default 1s).
	RetryAfter time.Duration
	// HealthInterval is the per-backend probe period (default 500ms).
	HealthInterval time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive failures (probe or
	// data-path) mark a backend down (default 3).
	FailThreshold int
	// Cooldown is the down window before a half-open re-probe
	// (default 1s).
	Cooldown time.Duration
	// MaxTenants caps tenants fleet-wide, any state (0 = unlimited).
	MaxTenants int
	// MaxPerOwner caps tenants one client identity may provision
	// (0 = unlimited).
	MaxPerOwner int
	// IdleAfter evicts tenants idle this long: deleted from their
	// backend, spec+journal spilled in the router, lazily revived on
	// the next request (0 = never).
	IdleAfter time.Duration
	// CreateTimeout bounds one re-provision attempt, world build plus
	// journal replay (default 10m). Client-driven creates use the
	// request's own context instead.
	CreateTimeout time.Duration
	// Telemetry mounts router_* metrics (and /metrics when it carries a
	// registry).
	Telemetry *obs.Telemetry
	// SLOTarget is the per-request latency objective behind the
	// per-tenant burn-rate gauge (default 100ms).
	SLOTarget time.Duration
	// SLOObjective is the target fraction of requests within SLOTarget
	// (default 0.99).
	SLOObjective float64
	// Client is the HTTP client used to reach backends (default: a
	// fresh http.Client; per-request contexts bound each call).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.CreateTimeout <= 0 {
		c.CreateTimeout = 10 * time.Minute
	}
	return c
}

// journalEntry is one acked execute body: the bytes exactly as the
// client sent them plus the Content-Type they arrived in, so failover
// replay re-sends binary frames as binary and JSON as JSON.
type journalEntry struct {
	contentType string
	body        []byte
	// stream marks a journaled streamed-execute chunk (vs a synchronous
	// execute body) — replaying one counts toward the stream-replay
	// metric.
	stream bool
}

// entry is the router's authoritative record of one tenant: where it
// lives, what state it is in, and the journal that rebuilds its
// retraining state bit-identically after a failover or revival.
type entry struct {
	spec  wire.TargetSpec
	owner string

	// state and backend are guarded by Router.mu. backend is non-nil
	// exactly in StateReady.
	state   string
	backend *backend

	lastActive atomic.Int64 // UnixNano of the last request touching this tenant

	// execMu serializes the execute send→ack→journal-append critical
	// section and guards journal and streams. Rebuild snapshots the
	// journal under it but replays without it, so waiting executes see a
	// quick 503 (retryable) instead of blocking past their deadline.
	execMu  sync.Mutex
	journal []journalEntry
	// streams records, per streamed-execute token, the chunk seqs whose
	// bodies are already journaled. A journaled (token, seq) resubmitted
	// after a failover is acked 202 without forwarding — the replay
	// already applied it — which is what keeps streamed retrains
	// exactly-once across backend deaths. Kept until the tenant is
	// deleted (a deleted seq set would let a whole-stream retry
	// double-apply).
	streams map[string]map[int64]bool
}

func (e *entry) touch() { e.lastActive.Store(time.Now().UnixNano()) }
func (e *entry) idleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - e.lastActive.Load())
}

// Router is the fleet front: an HTTP server speaking the same wire as
// paced, proxying to backends it health-checks and heals.
type Router struct {
	cfg      Config
	backends []*backend
	core     *httpserve.Server

	mu      sync.Mutex
	entries map[string]*entry

	// bg is the router's background telemetry context: root spans for
	// self-initiated work (rebuild, revival) start from it.
	bg context.Context

	// All nil-safe no-ops without telemetry.
	mFailover       *obs.Counter
	mReprovision    *obs.Counter
	mReprovLatency  *obs.Histogram
	mEvicted        *obs.Counter
	mRevived        *obs.Counter
	mQuotaDenied    *obs.Counter
	mUnknownTarget  *obs.Counter
	mAdminReqs      *obs.Counter
	mTenants        *obs.Gauge
	mStreamOpens    *obs.Counter
	mStreamFwd      *obs.Counter
	mStreamDedup    *obs.Counter
	mStreamReplayed *obs.Counter
}

// New builds the router, probes every backend once synchronously (so
// placement works the moment it returns) and starts the health loops.
// Callers must eventually call Shutdown or Close.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:     cfg,
		entries: map[string]*entry{},
		bg:      obs.NewContext(context.Background(), cfg.Telemetry),
		core: httpserve.New(httpserve.Config{
			Name: "router", Metrics: "router", Span: "proxy", Realm: "pacerouter", Noun: "router",
			ShedStatus: http.StatusServiceUnavailable, CountShed: true,
			AuthTokens: cfg.AuthTokens, RetryAfter: cfg.RetryAfter, Telemetry: cfg.Telemetry,
			SLOTarget: cfg.SLOTarget, SLOObjective: cfg.SLOObjective,
		}),
	}
	rt.instrument(cfg.Telemetry.Registry())

	seen := map[string]bool{}
	for _, raw := range cfg.Backends {
		u := strings.TrimRight(strings.TrimSpace(raw), "/")
		if u == "" {
			continue
		}
		if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
			u = "http://" + u
		}
		if _, err := url.Parse(u); err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", raw, err)
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		b := &backend{url: u, br: resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: cfg.FailThreshold,
			Cooldown:         cfg.Cooldown,
		})}
		if reg := cfg.Telemetry.Registry(); reg != nil {
			b.mUp = reg.Gauge(fmt.Sprintf("router_backend_up{backend=%q}", u))
		}
		hc := http.Client{}
		if cfg.Client != nil {
			hc = *cfg.Client
		}
		hc.Transport = &recordingTransport{rt: rt, b: b, base: hc.Transport}
		rc, err := remote.NewClient(u, remote.Options{ClientID: routerClient, AuthToken: cfg.AuthToken, Client: &hc})
		if err != nil {
			return nil, fmt.Errorf("router: backend %q: %w", raw, err)
		}
		b.client, b.admin = rc, rc.Admin()
		rt.backends = append(rt.backends, b)
	}
	if len(rt.backends) == 0 {
		return nil, errors.New("router: at least one backend required")
	}

	rt.core.MountData(httpserve.DataRoutes{
		Estimate:        func(w http.ResponseWriter, r *http.Request, id string) { rt.handleData(w, r, id, false) },
		Execute:         func(w http.ResponseWriter, r *http.Request, id string) { rt.handleData(w, r, id, true) },
		OpenExecution:   rt.handleOpenExecution,
		ExecutionChunk:  rt.handleExecutionChunk,
		ExecutionStatus: rt.handleExecutionStatus,
		ExecutionDelete: rt.handleExecutionDelete,
	})
	rt.core.HandleFunc("GET /v1/targets/{id}/healthz", rt.handleTenantHealthz)
	rt.core.HandleFunc("POST /v1/targets", rt.handleCreate)
	rt.core.HandleFunc("DELETE /v1/targets/{id}", rt.handleDelete)
	rt.core.HandleFunc("GET /v1/targets", rt.handleList)
	rt.core.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.core.HandleFunc("GET /v1/fleet", rt.handleFleet)

	// Boot probe round: parallel, synchronous, so the first create after
	// New can already place. The health loops take over from here.
	var boot sync.WaitGroup
	for _, b := range rt.backends {
		boot.Add(1)
		go func(b *backend) { defer boot.Done(); rt.probeOnce(b) }(b)
	}
	boot.Wait()
	for _, b := range rt.backends {
		rt.core.Go(func() { rt.healthLoop(b) })
	}
	if cfg.IdleAfter > 0 {
		rt.core.Janitor(cfg.IdleAfter, rt.evictIdle)
	}
	return rt, nil
}

func (rt *Router) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	rt.mFailover = reg.Counter("router_failover_total")
	rt.mReprovision = reg.Counter("router_reprovision_total")
	rt.mReprovLatency = reg.Histogram("router_reprovision_latency_us")
	rt.mEvicted = reg.Counter("router_evicted_total")
	rt.mRevived = reg.Counter("router_revived_total")
	rt.mQuotaDenied = reg.Counter("router_quota_denied_total")
	rt.mUnknownTarget = reg.Counter("router_unknown_target_total")
	rt.mAdminReqs = reg.Counter("router_admin_requests_total")
	rt.mTenants = reg.Gauge("router_tenants")
	rt.mStreamOpens = reg.Counter("router_stream_opens_total")
	rt.mStreamFwd = reg.Counter("router_stream_chunks_forwarded_total")
	rt.mStreamDedup = reg.Counter("router_stream_chunks_deduped_total")
	rt.mStreamReplayed = reg.Counter("router_stream_chunks_replayed_total")
}

// Handler exposes the router mux (for httptest or custom listeners).
func (rt *Router) Handler() http.Handler { return rt.core.Handler() }

// Start binds addr and serves in the background, returning the bound
// address (port 0 picks an ephemeral one).
func (rt *Router) Start(addr string) (string, error) { return rt.core.Start(addr) }

// Shutdown stops serving and the health/janitor loops. It does NOT
// drain or destroy the backends — they are separate processes with
// their own lifecycles.
func (rt *Router) Shutdown(ctx context.Context) error { return rt.core.Shutdown(ctx) }

// Close is Shutdown with a short bound.
func (rt *Router) Close() error { return httpserve.Close(rt.Shutdown) }

// proxy sends one call to b through the backend's client. When the
// exchange fails it answers for the backend — nothing if the client hung
// up (nobody is reading), else 503 + Retry-After while failover gets
// under way — and reports false.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, b *backend, id string, call remote.Call) (*remote.Reply, bool) {
	rep, err := b.client.Exchange(r.Context(), call)
	if err != nil {
		if r.Context().Err() == nil {
			rt.core.Shed(w, wire.CodeNotReady, "backend for tenant "+id+" unreachable; failover under way")
		}
		return nil, false
	}
	return rep, true
}

// passthrough relays a backend reply verbatim: status, body and the
// headers the wire protocol cares about.
func (rt *Router) passthrough(w http.ResponseWriter, rep *remote.Reply) {
	if ct := rep.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := rep.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(rep.Status)
	w.Write(rep.Body) //nolint:errcheck // client hang-ups are its problem
}

// resolveData runs the shared data-path preamble: drain gate, client
// identity, entry lookup, touch, and the evicted/creating/rebuilding
// state gates. The returned entry's backend is NOT validated — each
// path re-checks placement where its consistency needs demand.
func (rt *Router) resolveData(w http.ResponseWriter, r *http.Request, id string) (*entry, string, bool) {
	if rt.core.RefuseDraining(w) {
		return nil, "", false
	}
	client, ok := rt.core.ClientIdentity(w, r)
	if !ok {
		return nil, "", false
	}
	rt.mu.Lock()
	e := rt.entries[id]
	var state string
	if e != nil {
		state = e.state
	}
	rt.mu.Unlock()
	if e == nil {
		rt.mUnknownTarget.Inc()
		httpserve.WriteError(w, http.StatusNotFound, wire.CodeUnknownTarget, "no tenant "+id)
		return nil, "", false
	}
	e.touch()
	switch state {
	case StateEvicted:
		go rt.revive(id)
		rt.core.Shed(w, wire.CodeEvicted, "tenant "+id+" evicted; revival under way")
		return nil, "", false
	case StateCreating, StateRebuilding:
		rt.core.Shed(w, wire.CodeNotReady, "tenant "+id+" "+state)
		return nil, "", false
	}
	return e, client, true
}

// relay is the proxied form of a data-path POST: the body under the
// client's identity, with the codec headers it arrived with — its
// Content-Type (JSON when absent, the v1 behaviour, so journal entries
// always carry an explicit codec) and its Accept ask, absent if absent.
func relay(r *http.Request, path string, body []byte, client string) remote.Call {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		ct = wire.JSONContentType
	}
	return remote.Call{Method: http.MethodPost, Path: path, ContentType: ct, Accept: r.Header.Get("Accept"),
		Body: body, ClientID: client}
}

// handleData proxies one estimate or execute to the tenant's backend,
// relaying the negotiated codec untouched — the router never decodes
// data-path bodies. Execute bodies are journaled on ack (with their
// Content-Type) so a failover can replay them.
func (rt *Router) handleData(w http.ResponseWriter, r *http.Request, id string, exec bool) {
	e, client, ok := rt.resolveData(w, r, id)
	if !ok {
		return
	}
	body, ok := httpserve.ReadBody(w, r)
	if !ok {
		return
	}
	op := "estimate"
	if exec {
		op = "execute"
	}
	call := relay(r, "/v1/targets/"+id+"/"+op, body, client)

	if !exec {
		rt.mu.Lock()
		b := e.backend
		rt.mu.Unlock()
		if b == nil || !b.up.Load() {
			rt.core.Shed(w, wire.CodeNotReady, "tenant "+id+" losing its backend; failover under way")
			return
		}
		if rep, ok := rt.proxy(w, r, b, id, call); ok {
			rt.passthrough(w, rep)
		}
		return
	}

	// Execute: hold the journal lock across send→ack→append so the
	// journal order IS the apply order, then re-check placement — a
	// failover may have started while we queued on the lock.
	e.execMu.Lock()
	defer e.execMu.Unlock()
	rt.mu.Lock()
	if e.state != StateReady || e.backend == nil || !e.backend.up.Load() {
		rt.mu.Unlock()
		rt.core.Shed(w, wire.CodeNotReady, "tenant "+id+" rebuilding")
		return
	}
	b := e.backend
	rt.mu.Unlock()
	rep, ok := rt.proxy(w, r, b, id, call)
	if !ok {
		return
	}
	if rep.Status == http.StatusOK {
		e.journal = append(e.journal, journalEntry{contentType: call.ContentType, body: body})
	}
	rt.passthrough(w, rep)
}

// handleCreate admits a tenant (quotas), places it by rendezvous hash
// and provisions it on the chosen backend, blocking for the world
// build like paced's own create does.
func (rt *Router) handleCreate(w http.ResponseWriter, r *http.Request) {
	rt.mAdminReqs.Inc()
	if rt.core.RefuseDraining(w) {
		return
	}
	owner, ok := rt.core.ClientIdentity(w, r)
	if !ok {
		return
	}
	var req wire.CreateTargetRequest
	if !rt.core.DecodeRequest(w, r, &req) {
		return
	}
	id := req.Target.ID
	if id == "" {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest, "target id required")
		return
	}

	rt.mu.Lock()
	if _, exists := rt.entries[id]; exists {
		rt.mu.Unlock()
		httpserve.WriteError(w, http.StatusConflict, wire.CodeTargetExists, "tenant "+id+" already exists")
		return
	}
	if rt.cfg.MaxTenants > 0 && len(rt.entries) >= rt.cfg.MaxTenants {
		rt.mu.Unlock()
		rt.mQuotaDenied.Inc()
		rt.core.Refuse(w, http.StatusTooManyRequests, wire.CodeQuotaExceeded,
			fmt.Sprintf("fleet at its %d-tenant cap", rt.cfg.MaxTenants))
		return
	}
	if rt.cfg.MaxPerOwner > 0 {
		n := 0
		for _, e := range rt.entries {
			if e.owner == owner {
				n++
			}
		}
		if n >= rt.cfg.MaxPerOwner {
			rt.mu.Unlock()
			rt.mQuotaDenied.Inc()
			rt.core.Refuse(w, http.StatusTooManyRequests, wire.CodeQuotaExceeded,
				fmt.Sprintf("client %s at its %d-tenant quota", owner, rt.cfg.MaxPerOwner))
			return
		}
	}
	e := &entry{spec: req.Target, owner: owner, state: StateCreating}
	e.touch()
	rt.entries[id] = e
	n := len(rt.entries)
	rt.mu.Unlock()
	rt.mTenants.Set(int64(n))

	b := pick(id, rt.backends)
	if b == nil {
		rt.dropEntry(id, e)
		rt.core.Shed(w, wire.CodeNotReady, "no backend up to place tenant "+id)
		return
	}
	rep, err := rt.createOn(r.Context(), b, req, owner)
	if err != nil {
		rt.dropEntry(id, e)
		if r.Context().Err() != nil {
			return
		}
		rt.core.Shed(w, wire.CodeNotReady, "backend "+b.url+" unreachable: "+err.Error())
		return
	}
	if rep.Status != http.StatusOK {
		rt.dropEntry(id, e)
		rt.passthrough(w, rep)
		return
	}
	rt.mu.Lock()
	if rt.entries[id] == e {
		e.state, e.backend = StateReady, b
		if !b.up.Load() {
			// The backend finished the build and then died: hand the
			// tenant straight to failover; the client's next request
			// rides the 503 + Retry-After through the rebuild.
			e.state, e.backend = StateRebuilding, nil
			defer func() { go rt.rebuild(id) }()
		}
	}
	rt.mu.Unlock()
	rt.passthrough(w, rep)
}

// createOn provisions spec on b. A 409 means a stale tenant from before
// a router restart or failover still lives there — it is deleted and
// the create retried once, making the router's placement authoritative.
func (rt *Router) createOn(ctx context.Context, b *backend, req wire.CreateTargetRequest, owner string) (*remote.Reply, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	call := remote.Call{Method: http.MethodPost, Path: "/v1/targets", ContentType: wire.JSONContentType, Body: body, ClientID: owner}
	rep, err := b.client.Exchange(ctx, call)
	if err != nil || rep.Status != http.StatusConflict {
		return rep, err
	}
	if err := rt.deleteOnBackend(ctx, b, req.Target.ID); err != nil {
		return rep, nil // keep the 409; the stale world would not budge
	}
	return b.client.Exchange(ctx, call)
}

func (rt *Router) dropEntry(id string, e *entry) {
	rt.mu.Lock()
	if rt.entries[id] == e {
		delete(rt.entries, id)
	}
	n := len(rt.entries)
	rt.mu.Unlock()
	rt.mTenants.Set(int64(n))
}

// handleDelete removes a tenant everywhere: from the placement map and,
// best-effort, from its backend. Deleting a rebuilding or evicted
// tenant just drops the router-side record (journal included).
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	rt.mAdminReqs.Inc()
	if _, ok := rt.core.ClientIdentity(w, r); !ok {
		return
	}
	id := r.PathValue("id")
	rt.mu.Lock()
	e := rt.entries[id]
	if e == nil {
		rt.mu.Unlock()
		rt.mUnknownTarget.Inc()
		httpserve.WriteError(w, http.StatusNotFound, wire.CodeUnknownTarget, "no tenant "+id)
		return
	}
	if e.state == StateCreating {
		rt.mu.Unlock()
		rt.core.Refuse(w, http.StatusServiceUnavailable, wire.CodeNotReady, "tenant "+id+" still provisioning")
		return
	}
	b := e.backend
	delete(rt.entries, id)
	n := len(rt.entries)
	rt.mu.Unlock()
	rt.mTenants.Set(int64(n))
	if b != nil {
		ctx, cancel := context.WithTimeout(r.Context(), 30*time.Second)
		rt.deleteOnBackend(ctx, b, id) //nolint:errcheck // backend GC catches leftovers
		cancel()
	}
	httpserve.WriteJSON(w, http.StatusOK, wire.DeleteTargetResponse{V: wire.Version, Deleted: id})
}

func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mAdminReqs.Inc()
	if _, ok := rt.core.ClientIdentity(w, r); !ok {
		return
	}
	rt.mu.Lock()
	resp := wire.ListTargetsResponse{V: wire.Version, Targets: make([]wire.TargetInfo, 0, len(rt.entries))}
	for _, e := range rt.entries {
		resp.Targets = append(resp.Targets, wire.TargetInfo{TargetSpec: e.spec, State: e.state})
	}
	rt.mu.Unlock()
	sort.Slice(resp.Targets, func(i, j int) bool { return resp.Targets[i].ID < resp.Targets[j].ID })
	httpserve.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz reports the router's own health plus every tenant's
// state — wire-compatible with paced's /healthz, so remote.Admin's
// WaitReady works unchanged through the router.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := wire.HealthzResponse{Status: "ok", Tenants: map[string]string{}}
	rt.mu.Lock()
	for id, e := range rt.entries {
		resp.Tenants[id] = e.state
	}
	rt.mu.Unlock()
	for _, b := range rt.backends {
		if !b.up.Load() {
			resp.Status = "degraded"
			break
		}
	}
	status := http.StatusOK
	if rt.core.Draining() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	httpserve.WriteJSON(w, status, resp)
}

// handleTenantHealthz is the per-tenant readiness probe: 200 only when
// the tenant is ready on an up backend.
func (rt *Router) handleTenantHealthz(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if rt.core.RefuseDraining(w) {
		return
	}
	rt.mu.Lock()
	e := rt.entries[id]
	var state string
	var b *backend
	if e != nil {
		state, b = e.state, e.backend
	}
	rt.mu.Unlock()
	switch {
	case e == nil:
		rt.mUnknownTarget.Inc()
		httpserve.WriteError(w, http.StatusNotFound, wire.CodeUnknownTarget, "no tenant "+id)
	case state == StateEvicted:
		go rt.revive(id)
		rt.core.Shed(w, wire.CodeEvicted, "tenant "+id+" evicted; revival under way")
	case state != StateReady || b == nil || !b.up.Load():
		rt.core.Shed(w, wire.CodeNotReady, "tenant "+id+" "+state)
	default:
		httpserve.WriteJSON(w, http.StatusOK, wire.HealthzResponse{
			Status:  "ok",
			Tenants: map[string]string{id: StateReady},
		})
	}
}

// handleFleet reports fleet topology: each backend's health and load,
// and every tenant's placement — the operator's (and chaos test's)
// view of who lives where.
func (rt *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	resp := wire.FleetStatusResponse{V: wire.Version, Status: "ok", Tenants: map[string]wire.TenantPlacement{}}
	hosted := map[string]int{}
	rt.mu.Lock()
	for id, e := range rt.entries {
		p := wire.TenantPlacement{State: e.state}
		if e.backend != nil {
			p.Backend = e.backend.url
			hosted[e.backend.url]++
		}
		resp.Tenants[id] = p
	}
	rt.mu.Unlock()
	for _, b := range rt.backends {
		up := b.up.Load()
		if !up {
			resp.Status = "degraded"
		}
		resp.Backends = append(resp.Backends, wire.BackendStatus{URL: b.url, Up: up, Tenants: hosted[b.url]})
	}
	httpserve.WriteJSON(w, http.StatusOK, resp)
}

// rebuild re-provisions one rebuilding tenant on a surviving backend:
// create from spec (bit-identical world), replay the execute journal in
// order (bit-identical retraining state), then flip it ready. It keeps
// retrying — waiting out windows with no backend up — until the tenant
// is rebuilt, deleted, or the router shuts down.
func (rt *Router) rebuild(id string) {
	start := time.Now()
	// Rebuilds are router-initiated, so their spans root in the router's
	// own trace rather than under any client request.
	rctx, rsp := obs.StartSpan(rt.bg, "rebuild", obs.String("tenant", id))
	defer rsp.End()
	for {
		if rt.core.Draining() {
			return
		}
		rt.mu.Lock()
		e := rt.entries[id]
		if e == nil || e.state != StateRebuilding {
			rt.mu.Unlock()
			return
		}
		rt.mu.Unlock()

		b := pick(id, rt.backends)
		if b == nil {
			if !rt.sleep(rt.cfg.HealthInterval) {
				return
			}
			continue
		}
		if err := rt.provision(rctx, e, b); err != nil {
			if !rt.sleep(rt.cfg.HealthInterval) {
				return
			}
			continue
		}
		rt.mu.Lock()
		landed := rt.entries[id] == e && e.state == StateRebuilding && b.up.Load()
		if landed {
			e.state, e.backend = StateReady, b
		}
		rt.mu.Unlock()
		if !landed {
			// The tenant was deleted mid-rebuild, or b died right after
			// provisioning. Drop the fresh world (best-effort; a dead
			// backend's copy is GC'd if it ever comes back) and either
			// stop or pick again.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			rt.deleteOnBackend(ctx, b, id) //nolint:errcheck
			cancel()
			continue
		}
		rt.mReprovision.Inc()
		rt.mReprovLatency.Observe(float64(time.Since(start).Microseconds()))
		return
	}
}

// provision creates e's world on b through the backend's admin client
// and replays the journal. The journal cannot grow underneath it:
// executes are rejected (503, retryable) while the entry is rebuilding,
// so the snapshot is complete. Streamed chunks sit in the journal like
// plain executes and replay through the synchronous path — apply order
// is journal order either way.
func (rt *Router) provision(parent context.Context, e *entry, b *backend) error {
	e.execMu.Lock()
	journal := append([]journalEntry(nil), e.journal...)
	e.execMu.Unlock()
	pctx, psp := obs.StartSpan(parent, "provision", obs.Int("journal", len(journal)))
	defer psp.End()
	ctx, cancel := context.WithTimeout(pctx, rt.cfg.CreateTimeout)
	defer cancel()
	// A stale copy from before a router restart or failover may still
	// live on b; the router's placement map is authoritative, so clear
	// it unconditionally before creating (already-gone is fine).
	if err := rt.deleteOnBackend(ctx, b, e.spec.ID); err != nil {
		return err
	}
	if _, err := b.admin.CreateTarget(ctx, e.spec); err != nil {
		return fmt.Errorf("router: rebuild create %s on %s: %w", e.spec.ID, b.url, err)
	}
	jctx, jsp := obs.StartSpan(ctx, "journal_replay", obs.Int("entries", len(journal)))
	defer jsp.End()
	for _, je := range journal {
		if err := rt.replayExecute(jctx, b, e.spec.ID, je); err != nil {
			return err
		}
		if je.stream {
			rt.mStreamReplayed.Inc()
		}
	}
	return nil
}

// replayExecute re-applies one journaled execute body in the codec it
// was journaled in, riding out admission sheds (429/503 + Retry-After)
// — a freshly built tenant can still rate-limit the router's replay
// identity.
func (rt *Router) replayExecute(ctx context.Context, b *backend, id string, je journalEntry) error {
	call := remote.Call{Method: http.MethodPost, Path: "/v1/targets/" + id + "/execute", ContentType: je.contentType, Body: je.body}
	for {
		rep, err := b.client.Exchange(ctx, call)
		if err != nil {
			return err
		}
		switch rep.Status {
		case http.StatusOK:
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			d := 100 * time.Millisecond
			if secs, aerr := strconv.Atoi(rep.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				d = time.Duration(secs) * time.Second
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(d):
			}
		default:
			return fmt.Errorf("router: replay execute %s on %s: http %d: %s", id, b.url, rep.Status, rep.Body)
		}
	}
}

// revive flips an evicted tenant to rebuilding and runs the same
// rebuild path — the kept journal makes revival bit-exact, not just
// spec-exact.
func (rt *Router) revive(id string) {
	rt.mu.Lock()
	e := rt.entries[id]
	if e == nil || e.state != StateEvicted {
		rt.mu.Unlock()
		return
	}
	e.state = StateRebuilding
	rt.mu.Unlock()
	rt.mRevived.Inc()
	rt.rebuild(id)
}

// evictIdle is the janitor's sweep over idle ready tenants: the
// backend's copy is deleted (freeing its model goroutine), the spec and
// journal stay spilled in the router, and the next request lazily
// revives the tenant.
func (rt *Router) evictIdle() {
	type victim struct {
		id string
		b  *backend
	}
	var victims []victim
	rt.mu.Lock()
	for id, e := range rt.entries {
		if e.state == StateReady && e.idleFor() > rt.cfg.IdleAfter {
			victims = append(victims, victim{id, e.backend})
			e.state, e.backend = StateEvicted, nil
		}
	}
	rt.mu.Unlock()
	for _, v := range victims {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		rt.deleteOnBackend(ctx, v.b, v.id) //nolint:errcheck // backend GC catches leftovers
		cancel()
		rt.mEvicted.Inc()
	}
}

func (rt *Router) sleep(d time.Duration) bool {
	select {
	case <-rt.core.Done():
		return false
	case <-time.After(d):
		return true
	}
}

// deleteOnBackend destroys one tenant on one backend; already gone
// (404 and kin, surfaced by the admin client as the permanent error
// class) counts as success.
func (rt *Router) deleteOnBackend(ctx context.Context, b *backend, id string) error {
	err := b.admin.DeleteTarget(ctx, id)
	if err == nil || errors.Is(err, ce.ErrInvalidQuery) {
		return nil
	}
	return err
}
