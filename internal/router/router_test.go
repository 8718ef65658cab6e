package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

func testMeta() *query.Meta {
	return &query.Meta{
		TableNames: []string{"a", "b"},
		AttrNames:  []string{"a0", "a1", "b0"},
		AttrOffset: []int{0, 2, 3},
	}
}

func openQuery() wire.Query {
	return wire.Query{
		Tables: []int{0},
		Bounds: [][2]wire.B64{
			{wire.FromFloat(0.25), wire.FromFloat(0.75)},
			{wire.FromFloat(0), wire.FromFloat(1)},
			{wire.FromFloat(0), wire.FromFloat(1)},
		},
	}
}

// seqTarget's estimate is a deterministic, ORDER-SENSITIVE function of
// its execute history: sum' = sum*3 + card, folded per card. Two worlds
// answer bit-identical estimates iff they absorbed the same executes in
// the same order — exactly the property journal replay must restore.
// execs counts ExecuteWorkload calls (retrains); gate, when set, can
// park one execute.
type seqTarget struct {
	mu    sync.Mutex
	sum   float64
	execs int
	gate  *execGate
}

func (s *seqTarget) EstimateContext(_ context.Context, q *query.Query) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return q.Bounds[0][0]*1000 + s.sum, nil
}

func (s *seqTarget) ExecuteWorkload(_ context.Context, _ []*query.Query, cards []float64) error {
	s.gate.hold()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.execs++
	for _, c := range cards {
		s.sum = math.Mod(s.sum*3+c, 1e9)
	}
	return nil
}

func seqFactory(_ context.Context, _ tenant.Spec) (ce.Target, *query.Meta, error) {
	return &seqTarget{}, testMeta(), nil
}

// fleet is n real paced backends (own listeners, so Kill can crash one)
// behind one router.
type fleet struct {
	rt      *router.Router
	url     string
	servers []*targetserver.Server
	urls    []string
}

func newFleet(t *testing.T, n int, rcfg router.Config) *fleet {
	t.Helper()
	return newFleetOf(t, n, rcfg, seqFactory)
}

// newFleetOf is newFleet with the backends building worlds through
// factory.
func newFleetOf(t *testing.T, n int, rcfg router.Config, factory tenant.Factory) *fleet {
	t.Helper()
	f := &fleet{}
	for i := 0; i < n; i++ {
		cfg := targetserver.Config{Factory: factory}
		reg := tenant.NewRegistry(cfg.Factory, cfg.TenantConfig())
		srv := targetserver.NewMulti(reg, cfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, "http://"+addr)
	}
	rcfg.Backends = f.urls
	if rcfg.HealthInterval == 0 {
		rcfg.HealthInterval = 20 * time.Millisecond
	}
	if rcfg.Cooldown == 0 {
		rcfg.Cooldown = 50 * time.Millisecond
	}
	rt, err := router.New(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.url = "http://" + addr
	t.Cleanup(func() {
		rt.Close() //nolint:errcheck
		// The router dials backends over the shared default transport; a
		// connection it dialed but never used would hold a backend's
		// shutdown for seconds.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		for _, srv := range f.servers {
			srv.Close() //nolint:errcheck // killed members error; that's fine
		}
	})
	return f
}

func doJSON(t *testing.T, method, url string, body, dst any, client string) (*http.Response, wire.ErrorResponse) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if client != "" {
		req.Header.Set(wire.ClientHeader, client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var er wire.ErrorResponse
	if resp.StatusCode >= 400 {
		json.Unmarshal(raw, &er) //nolint:errcheck // some errors carry no body
	} else if dst != nil {
		if err := json.Unmarshal(raw, dst); err != nil {
			t.Fatalf("decoding %s %s: %v (%s)", method, url, err, raw)
		}
	}
	return resp, er
}

func createTenant(t *testing.T, f *fleet, id, client string) (*http.Response, wire.ErrorResponse) {
	t.Helper()
	req := wire.CreateTargetRequest{V: wire.Version, Target: wire.TargetSpec{
		ID: id, Dataset: "dmv", Model: "fcn", Seed: 1,
	}}
	var cr wire.CreateTargetResponse
	return doJSON(t, http.MethodPost, f.url+"/v1/targets", req, &cr, client)
}

// estimate returns (value, status). Status 200 carries the value.
func estimate(t *testing.T, f *fleet, id string) (float64, int, wire.ErrorResponse) {
	t.Helper()
	req := wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
	var er wire.EstimateResponse
	resp, werr := doJSON(t, http.MethodPost, f.url+"/v1/targets/"+id+"/estimate", req, &er, "tester")
	if resp.StatusCode != http.StatusOK {
		return 0, resp.StatusCode, werr
	}
	if len(er.Estimates) != 1 {
		t.Fatalf("estimate answered %d values", len(er.Estimates))
	}
	return er.Estimates[0].Float(), resp.StatusCode, werr
}

func execute(t *testing.T, f *fleet, id string, cards ...float64) int {
	t.Helper()
	req := wire.ExecuteRequest{V: wire.Version, Queries: make([]wire.Query, len(cards)), Cards: wire.FromFloats(cards)}
	for i := range req.Queries {
		req.Queries[i] = openQuery()
	}
	var er wire.ExecuteResponse
	resp, _ := doJSON(t, http.MethodPost, f.url+"/v1/targets/"+id+"/execute", req, &er, "tester")
	return resp.StatusCode
}

func fleetStatus(t *testing.T, f *fleet) wire.FleetStatusResponse {
	t.Helper()
	var fs wire.FleetStatusResponse
	resp, _ := doJSON(t, http.MethodGet, f.url+"/v1/fleet", nil, &fs, "tester")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet status: %d", resp.StatusCode)
	}
	return fs
}

// hostOf finds the server currently hosting id, by URL.
func (f *fleet) hostOf(t *testing.T, id string) (*targetserver.Server, string) {
	t.Helper()
	fs := fleetStatus(t, f)
	p, ok := fs.Tenants[id]
	if !ok || p.Backend == "" {
		t.Fatalf("tenant %s not placed (placement %+v)", id, p)
	}
	for i, u := range f.urls {
		if u == p.Backend {
			return f.servers[i], u
		}
	}
	t.Fatalf("tenant %s placed on unknown backend %s", id, p.Backend)
	return nil, ""
}

// TestCreateRoutesAndEstimates: the happy path through the router is
// wire-identical to talking to paced directly, and placement is
// deterministic — deleting and re-creating a tenant lands it on the
// same backend.
func TestCreateRoutesAndEstimates(t *testing.T) {
	f := newFleet(t, 3, router.Config{})

	resp, _ := createTenant(t, f, "t1", "alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	v, code, _ := estimate(t, f, "t1")
	if code != http.StatusOK || v != 0.25*1000 {
		t.Fatalf("estimate = %v (%d), want 250 (200)", v, code)
	}
	if code := execute(t, f, "t1", 42); code != http.StatusOK {
		t.Fatalf("execute: %d", code)
	}
	v, _, _ = estimate(t, f, "t1")
	if v != 250+42 {
		t.Fatalf("post-execute estimate = %v, want 292", v)
	}

	_, first := f.hostOf(t, "t1")
	resp, _ = doJSON(t, http.MethodDelete, f.url+"/v1/targets/t1", nil, nil, "alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ := createTenant(t, f, "t1", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create: %d", resp.StatusCode)
	}
	if _, again := f.hostOf(t, "t1"); again != first {
		t.Errorf("re-created tenant moved %s -> %s with an unchanged fleet", first, again)
	}

	// Unknown tenant and duplicate create answer the paced taxonomy.
	if _, code, werr := estimate(t, f, "ghost"); code != http.StatusNotFound || werr.Code != wire.CodeUnknownTarget {
		t.Errorf("ghost estimate: %d %q", code, werr.Code)
	}
	if resp, werr := createTenant(t, f, "t1", "alice"); resp.StatusCode != http.StatusConflict || werr.Code != wire.CodeTargetExists {
		t.Errorf("duplicate create: %d %q", resp.StatusCode, werr.Code)
	}
}

// TestFailoverBitExact is the heart of the PR: kill the backend hosting
// a tenant with retraining state and the router must rebuild it
// elsewhere — create from spec, replay the execute journal in order —
// so the first estimate served after failover is bit-identical to the
// last one served before. No estimate may be served from a world whose
// retrain state is not yet rebuilt, and the outage window must answer
// only 503 + Retry-After.
func TestFailoverBitExact(t *testing.T) {
	tel := &obs.Telemetry{Reg: obs.NewRegistry()}
	f := newFleet(t, 2, router.Config{Telemetry: tel})

	if resp, _ := createTenant(t, f, "t", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Order-sensitive retraining history: replaying these out of order
	// (or dropping one) changes the estimate.
	for _, c := range []float64{3, 1, 4, 1, 5} {
		if code := execute(t, f, "t", c); code != http.StatusOK {
			t.Fatalf("execute: %d", code)
		}
	}
	want, code, _ := estimate(t, f, "t")
	if code != http.StatusOK {
		t.Fatalf("pre-kill estimate: %d", code)
	}

	victim, victimURL := f.hostOf(t, "t")
	victim.Kill()

	// Ride out the failover exactly like the retry layer would: every
	// response is either 503-with-Retry-After or a 200 carrying the
	// bit-identical pre-kill value.
	deadline := time.Now().Add(15 * time.Second)
	recovered := false
	for time.Now().Before(deadline) {
		req := wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
		var er wire.EstimateResponse
		resp, werr := doJSON(t, http.MethodPost, f.url+"/v1/targets/t/estimate", req, &er, "tester")
		switch resp.StatusCode {
		case http.StatusOK:
			if got := er.Estimates[0].Float(); got != want {
				t.Fatalf("post-failover estimate = %v, want bit-identical %v", got, want)
			}
			recovered = true
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatalf("outage 503 without Retry-After (code %q)", werr.Code)
			}
		default:
			t.Fatalf("outage answered %d (code %q), want 503 or 200", resp.StatusCode, werr.Code)
		}
		if recovered {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("tenant never recovered after backend kill")
	}

	if _, host := f.hostOf(t, "t"); host == victimURL {
		t.Fatalf("tenant still placed on the killed backend %s", host)
	}
	// Executes keep working against the rebuilt world.
	if code := execute(t, f, "t", 9); code != http.StatusOK {
		t.Fatalf("post-failover execute: %d", code)
	}

	var buf strings.Builder
	tel.Reg.WritePrometheus(&buf) //nolint:errcheck
	metrics := buf.String()
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "router_failover_total ") && strings.HasSuffix(line, " 0") {
			t.Errorf("router_failover_total still 0 after a kill:\n%s", metrics)
		}
	}
	if !strings.Contains(metrics, "router_failover_total") || !strings.Contains(metrics, "router_reprovision_total") {
		t.Errorf("failover metrics missing:\n%s", metrics)
	}
}

// TestRouterQuotas pins fleet-wide and per-owner admission caps.
func TestRouterQuotas(t *testing.T) {
	f := newFleet(t, 2, router.Config{MaxTenants: 2, MaxPerOwner: 1})

	if resp, _ := createTenant(t, f, "a", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice create: %d", resp.StatusCode)
	}
	resp, werr := createTenant(t, f, "a2", "alice")
	if resp.StatusCode != http.StatusTooManyRequests || werr.Code != wire.CodeQuotaExceeded {
		t.Fatalf("alice over quota: %d %q", resp.StatusCode, werr.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota rejection missing Retry-After")
	}
	if resp, _ := createTenant(t, f, "b", "bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob create: %d", resp.StatusCode)
	}
	if resp, werr := createTenant(t, f, "c", "carol"); resp.StatusCode != http.StatusTooManyRequests || werr.Code != wire.CodeQuotaExceeded {
		t.Fatalf("fleet over cap: %d %q", resp.StatusCode, werr.Code)
	}
	// Deleting frees quota.
	if resp, _ := doJSON(t, http.MethodDelete, f.url+"/v1/targets/b", nil, nil, "bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ := createTenant(t, f, "c", "carol"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create after free: %d", resp.StatusCode)
	}
}

// TestIdleEvictionRevivesBitExact: the router janitor evicts an idle
// tenant from its backend but keeps spec AND journal, so the lazy
// revival restores the retrained world bit-identically.
func TestIdleEvictionRevivesBitExact(t *testing.T) {
	f := newFleet(t, 2, router.Config{IdleAfter: 60 * time.Millisecond})

	if resp, _ := createTenant(t, f, "idle", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	for _, c := range []float64{7, 2} {
		if code := execute(t, f, "idle", c); code != http.StatusOK {
			t.Fatalf("execute: %d", code)
		}
	}
	want, _, _ := estimate(t, f, "idle")

	deadline := time.Now().Add(5 * time.Second)
	evicted := false
	for time.Now().Before(deadline) {
		fs := fleetStatus(t, f)
		if fs.Tenants["idle"].State == "evicted" {
			evicted = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !evicted {
		t.Fatal("janitor never evicted the idle tenant")
	}

	// First hit answers 503 evicted + Retry-After and kicks off revival.
	_, code, werr := estimate(t, f, "idle")
	if code != http.StatusServiceUnavailable || werr.Code != wire.CodeEvicted {
		t.Fatalf("evicted estimate: %d %q", code, werr.Code)
	}
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, code, _ := estimate(t, f, "idle")
		if code == http.StatusOK {
			if v != want {
				t.Fatalf("revived estimate = %v, want bit-identical %v", v, want)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("evicted tenant never revived")
}

// TestAdminClientThroughRouter: remote.Admin (the programmatic client
// every campaign uses) works unchanged against the router — healthz is
// wire-compatible, WaitReady sees "ready".
func TestAdminClientThroughRouter(t *testing.T) {
	f := newFleet(t, 2, router.Config{})
	rc, err := remote.NewClient(f.url, remote.Options{ClientID: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	admin := rc.Admin()
	defer admin.Close()

	ctx := context.Background()
	if _, err := admin.CreateTarget(ctx, wire.TargetSpec{ID: "adm", Dataset: "dmv", Model: "fcn", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := admin.WaitReady(ctx, "adm", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	targets, err := admin.ListTargets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) != 1 || targets[0].ID != "adm" || targets[0].State != "ready" {
		t.Fatalf("list = %+v", targets)
	}
	if err := admin.DeleteTarget(ctx, "adm"); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.ListTargets(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestNoBackendUp: with the whole fleet dead, creates shed 503 +
// Retry-After rather than hanging or crashing.
func TestNoBackendUp(t *testing.T) {
	f := newFleet(t, 1, router.Config{FailThreshold: 1, HealthInterval: 10 * time.Millisecond})
	f.servers[0].Kill()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		fs := fleetStatus(t, f)
		if fs.Status == "degraded" && !fs.Backends[0].Up {
			resp, werr := createTenant(t, f, "x", "alice")
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("create with fleet down: %d %q", resp.StatusCode, werr.Code)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("fleet-down create missing Retry-After")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("router never marked the killed backend down")
}

// TestVersionMismatch400 guards the protocol check on the router's own
// decode path.
func TestVersionMismatch400(t *testing.T) {
	f := newFleet(t, 1, router.Config{})
	req := wire.CreateTargetRequest{V: 99, Target: wire.TargetSpec{ID: "v"}}
	resp, werr := doJSON(t, http.MethodPost, f.url+"/v1/targets", req, nil, "alice")
	if resp.StatusCode != http.StatusBadRequest || werr.Code != wire.CodeBadRequest {
		t.Fatalf("version mismatch: %d %q", resp.StatusCode, werr.Code)
	}
}
