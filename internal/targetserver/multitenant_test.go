package targetserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/httpserve"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// mulTarget answers lo*k, so routed requests reveal which tenant's model
// answered; estimates are counted to make cache hits observable.
type mulTarget struct {
	k         float64
	estimates atomic.Int64
}

func (m *mulTarget) EstimateContext(_ context.Context, q *query.Query) (float64, error) {
	m.estimates.Add(1)
	return q.Bounds[0][0] * m.k, nil
}

func (m *mulTarget) ExecuteWorkload(context.Context, []*query.Query, []float64) error {
	return nil
}

// execGateTarget parks ExecuteWorkload on a gate so a drain can be
// observed waiting for in-flight retraining.
type execGateTarget struct {
	gate     chan struct{}
	entered  chan struct{}
	executed atomic.Int64
}

func (g *execGateTarget) EstimateContext(_ context.Context, q *query.Query) (float64, error) {
	return q.Bounds[0][0], nil
}

func (g *execGateTarget) ExecuteWorkload(ctx context.Context, _ []*query.Query, _ []float64) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	select {
	case <-g.gate:
	case <-ctx.Done():
		return ctx.Err()
	}
	g.executed.Add(1)
	return nil
}

// newMultiServer stands up a routed server over pre-built tenants.
func newMultiServer(t *testing.T, cfg targetserver.Config, specs map[string]ce.Target) (*targetserver.Server, *httptest.Server) {
	t.Helper()
	reg := tenant.NewRegistry(nil, cfg.TenantConfig())
	for id, target := range specs {
		if _, err := reg.Add(tenant.Spec{ID: id, CacheSize: cacheSizeFor(id)}, target, testMeta()); err != nil {
			t.Fatal(err)
		}
	}
	srv := targetserver.NewMulti(reg, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

// cacheSizeFor gives tenants named "cached*" a small estimate cache.
func cacheSizeFor(id string) int {
	if strings.HasPrefix(id, "cached") {
		return 4
	}
	return 0
}

// request posts body (nil = no body) with optional client header and
// bearer token.
func request(t *testing.T, method, url string, body any, client, token string) *http.Response {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(wire.ClientHeader, client)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func estReq() wire.EstimateRequest {
	return wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
}

func TestRoutedEndpointsReachTheNamedTenant(t *testing.T) {
	_, hs := newMultiServer(t, targetserver.Config{}, map[string]ce.Target{
		"default": &mulTarget{k: 10},
		"b":       &mulTarget{k: 1000},
	})

	// Routed estimate answers with tenant b's model, not default's.
	resp := postJSON(t, hs.URL+"/v1/targets/b/estimate", estReq(), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed estimate: status %d", resp.StatusCode)
	}
	if got := decodeBody[wire.EstimateResponse](t, resp).Estimates[0].Float(); got != 0.25*1000 {
		t.Errorf("tenant b estimate = %v, want %v", got, 0.25*1000)
	}

	// Tenant "default" answers with its own model, not b's.
	resp2 := postJSON(t, hs.URL+"/v1/targets/default/estimate", estReq(), "")
	if got := decodeBody[wire.EstimateResponse](t, resp2).Estimates[0].Float(); got != 0.25*10 {
		t.Errorf("default estimate = %v, want %v", got, 0.25*10)
	}

	// Unknown tenants are a 404 with a machine-readable code.
	resp3 := postJSON(t, hs.URL+"/v1/targets/ghost/estimate", estReq(), "")
	if resp3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown tenant: status %d, want 404", resp3.StatusCode)
	}
	if code := decodeBody[wire.ErrorResponse](t, resp3).Code; code != wire.CodeUnknownTarget {
		t.Errorf("code %q, want %q", code, wire.CodeUnknownTarget)
	}
}

func TestPerTenantEstimateCache(t *testing.T) {
	mt := &mulTarget{k: 7}
	_, hs := newMultiServer(t, targetserver.Config{}, map[string]ce.Target{"cached": mt})

	for i := 0; i < 2; i++ {
		resp := postJSON(t, hs.URL+"/v1/targets/cached/estimate", estReq(), "")
		if got := decodeBody[wire.EstimateResponse](t, resp).Estimates[0].Float(); got != 0.25*7 {
			t.Fatalf("call %d: estimate %v, want %v", i, got, 0.25*7)
		}
	}
	if got := mt.estimates.Load(); got != 1 {
		t.Errorf("model evaluated %d times, want 1 (second call should hit the plan cache)", got)
	}
}

func TestAdminCreateListDelete(t *testing.T) {
	factory := func(ctx context.Context, spec tenant.Spec) (ce.Target, *query.Meta, error) {
		return &mulTarget{k: 100}, testMeta(), nil
	}
	cfg := targetserver.Config{}
	reg := tenant.NewRegistry(factory, cfg.TenantConfig())
	srv := targetserver.NewMulti(reg, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	create := wire.CreateTargetRequest{V: wire.Version, Target: wire.TargetSpec{
		ID: "dyn", Dataset: "dmv", Model: "fcn", Seed: 1,
	}}
	resp := request(t, http.MethodPost, hs.URL+"/v1/targets", create, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if got := decodeBody[wire.CreateTargetResponse](t, resp); got.Target.ID != "dyn" || got.Target.State != "ready" {
		t.Fatalf("create response = %+v", got.Target)
	}

	// The new tenant serves immediately.
	er := postJSON(t, hs.URL+"/v1/targets/dyn/estimate", estReq(), "")
	if er.StatusCode != http.StatusOK {
		t.Fatalf("estimate on created tenant: status %d", er.StatusCode)
	}
	er.Body.Close()

	// A duplicate id is a conflict.
	dup := request(t, http.MethodPost, hs.URL+"/v1/targets", create, "", "")
	if dup.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", dup.StatusCode)
	}
	if code := decodeBody[wire.ErrorResponse](t, dup).Code; code != wire.CodeTargetExists {
		t.Errorf("code %q, want %q", code, wire.CodeTargetExists)
	}

	lr := request(t, http.MethodGet, hs.URL+"/v1/targets", nil, "", "")
	list := decodeBody[wire.ListTargetsResponse](t, lr)
	if len(list.Targets) != 1 || list.Targets[0].ID != "dyn" {
		t.Fatalf("list = %+v", list.Targets)
	}

	dr := request(t, http.MethodDelete, hs.URL+"/v1/targets/dyn", nil, "", "")
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dr.StatusCode)
	}
	if got := decodeBody[wire.DeleteTargetResponse](t, dr).Deleted; got != "dyn" {
		t.Errorf("deleted = %q, want dyn", got)
	}
	gone := postJSON(t, hs.URL+"/v1/targets/dyn/estimate", estReq(), "")
	if gone.StatusCode != http.StatusNotFound {
		t.Errorf("estimate after delete: status %d, want 404", gone.StatusCode)
	}
	gone.Body.Close()
}

func TestAuthTokensGateAndDeriveIdentity(t *testing.T) {
	_, hs := newMultiServer(t, targetserver.Config{
		AuthTokens: map[string]string{"s3cret-a": "alice", "s3cret-b": "bob"},
		RatePerSec: 0.001,
		Burst:      1,
	}, map[string]ce.Target{"default": &mulTarget{k: 2}})

	// No token: 401 with a challenge, and the model is never consulted.
	resp := request(t, http.MethodPost, hs.URL+"/v1/targets/default/estimate", estReq(), "spoof", "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: status %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate challenge")
	}
	if code := decodeBody[wire.ErrorResponse](t, resp).Code; code != wire.CodeUnauthorized {
		t.Errorf("code %q, want %q", code, wire.CodeUnauthorized)
	}
	bad := request(t, http.MethodPost, hs.URL+"/v1/targets/default/estimate", estReq(), "", "wrong")
	if bad.StatusCode != http.StatusUnauthorized {
		t.Errorf("unknown token: status %d, want 401", bad.StatusCode)
	}
	bad.Body.Close()

	// Alice burns her 1-token burst, then tries to dodge the rate limit by
	// spoofing the client header. Identity is token-derived, so the bucket
	// follows the token and she still gets 429 — while bob's token passes.
	ok := request(t, http.MethodPost, hs.URL+"/v1/targets/default/estimate", estReq(), "", "s3cret-a")
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("alice first call: status %d, want 200", ok.StatusCode)
	}
	ok.Body.Close()
	spoofed := request(t, http.MethodPost, hs.URL+"/v1/targets/default/estimate", estReq(), "someone-else", "s3cret-a")
	if spoofed.StatusCode != http.StatusTooManyRequests {
		t.Errorf("spoofed header on alice's token: status %d, want 429", spoofed.StatusCode)
	}
	if code := decodeBody[wire.ErrorResponse](t, spoofed).Code; code != wire.CodeRateLimited {
		t.Errorf("code %q, want %q", code, wire.CodeRateLimited)
	}
	bobResp := request(t, http.MethodPost, hs.URL+"/v1/targets/default/estimate", estReq(), "", "s3cret-b")
	if bobResp.StatusCode != http.StatusOK {
		t.Errorf("bob: status %d, want 200", bobResp.StatusCode)
	}
	bobResp.Body.Close()
}

func TestParseAuthTokens(t *testing.T) {
	tokens, err := httpserve.ParseAuthTokens(strings.NewReader(`
# comment
tok-1 alice
tok-2   bob
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 2 || tokens["tok-1"] != "alice" || tokens["tok-2"] != "bob" {
		t.Fatalf("tokens = %v", tokens)
	}
	if _, err := httpserve.ParseAuthTokens(strings.NewReader("t a\nt b\n")); err == nil {
		t.Error("duplicate token accepted")
	}
	if _, err := httpserve.ParseAuthTokens(strings.NewReader("lonely-token\n")); err == nil {
		t.Error("token without client name accepted")
	}
}

func TestHealthzReportsEveryTenant(t *testing.T) {
	_, hs := newMultiServer(t, targetserver.Config{}, map[string]ce.Target{
		"a": &mulTarget{k: 1},
		"b": &mulTarget{k: 2},
	})

	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody[wire.HealthzResponse](t, hr)
	if body.Status != "ok" || body.Tenants["a"] != "ready" || body.Tenants["b"] != "ready" {
		t.Fatalf("healthz = %+v", body)
	}

	tr, err := http.Get(hs.URL + "/v1/targets/a/healthz")
	if err != nil {
		t.Fatal(err)
	}
	tb := decodeBody[wire.HealthzResponse](t, tr)
	if tb.Status != "ok" || tb.Tenants["a"] != "ready" || len(tb.Tenants) != 1 {
		t.Fatalf("tenant healthz = %+v", tb)
	}

	gr, err := http.Get(hs.URL + "/v1/targets/ghost/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if gr.StatusCode != http.StatusNotFound {
		t.Errorf("ghost healthz: status %d, want 404", gr.StatusCode)
	}
	gr.Body.Close()
}

func TestTenantMetricsAreLabeled(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newMultiServer(t, targetserver.Config{
		Telemetry: &obs.Telemetry{Reg: reg},
	}, map[string]ce.Target{
		"a": &mulTarget{k: 1},
		"b": &mulTarget{k: 2},
	})
	postJSON(t, hs.URL+"/v1/targets/a/estimate", estReq(), "").Body.Close()
	postJSON(t, hs.URL+"/v1/targets/b/estimate", estReq(), "").Body.Close()

	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`paced_estimate_requests_total{tenant="a"}`,
		`paced_estimate_requests_total{tenant="b"}`,
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestShutdownDrainsEveryTenant holds an execute (retraining) call in
// flight on each of two tenants and verifies Shutdown iterates the whole
// registry: it returns only after both tenants' in-flight work completes,
// and both callers get a successful reply.
func TestShutdownDrainsEveryTenant(t *testing.T) {
	targets := map[string]*execGateTarget{
		"a": {gate: make(chan struct{}), entered: make(chan struct{}, 1)},
		"b": {gate: make(chan struct{}), entered: make(chan struct{}, 1)},
	}
	srv, hs := newMultiServer(t, targetserver.Config{},
		map[string]ce.Target{"a": targets["a"], "b": targets["b"]})

	exec := wire.ExecuteRequest{
		V:       wire.Version,
		Queries: []wire.Query{openQuery()},
		Cards:   []wire.B64{wire.FromFloat(42)},
	}
	var wg sync.WaitGroup
	codes := make(map[string]int)
	var mu sync.Mutex
	for id := range targets {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			resp := postJSON(t, hs.URL+"/v1/targets/"+id+"/execute", exec, "")
			mu.Lock()
			codes[id] = resp.StatusCode
			mu.Unlock()
			resp.Body.Close()
		}(id)
	}
	for id, tg := range targets {
		select {
		case <-tg.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("tenant %s never started its execute", id)
		}
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// With both tenants parked mid-retrain, the drain must not finish.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) while tenant work was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Release tenant a only: still one tenant busy, still draining.
	close(targets["a"].gate)
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned (%v) with tenant b still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(targets["b"].gate)
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for id, code := range codes {
		if code != http.StatusOK {
			t.Errorf("tenant %s in-flight execute: status %d, want 200", id, code)
		}
	}
	for id, tg := range targets {
		if tg.executed.Load() != 1 {
			t.Errorf("tenant %s retrain ran %d times, want 1", id, tg.executed.Load())
		}
	}
}
