package targetserver_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/targetserver"
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

// gateTarget serves estimates keyed off the query's first bound and can
// be blocked to hold the model goroutine busy.
type gateTarget struct {
	mu       sync.Mutex
	executed [][]float64
	estErr   error
	execErr  error
	gate     chan struct{} // non-nil: EstimateContext blocks until closed
	entered  chan struct{} // non-nil: signaled when an estimate starts
}

func (g *gateTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	if g.entered != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
	}
	if g.gate != nil {
		select {
		case <-g.gate:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
	if g.estErr != nil {
		return 0, g.estErr
	}
	// Echo back a bit-twiddled transform of the bound so exactness is
	// observable: estimate = lo bound's bits flipped into a float.
	return q.Bounds[0][0] * 1000, nil
}

func (g *gateTarget) ExecuteWorkload(_ context.Context, qs []*query.Query, cards []float64) error {
	if g.execErr != nil {
		return g.execErr
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.executed = append(g.executed, append([]float64(nil), cards...))
	return nil
}

// dflt names the default tenant's labeled metric family.
func dflt(base string) string { return base + `{tenant="default"}` }

func newTestServer(t *testing.T, bb ce.Target, cfg targetserver.Config) (*targetserver.Server, *httptest.Server) {
	t.Helper()
	srv := targetserver.New(bb, testMeta(), cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return srv, hs
}

func postJSON(t *testing.T, url string, body any, client string) *http.Response {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if client != "" {
		req.Header.Set(wire.ClientHeader, client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestEstimateSingleAndBatchExact(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})

	q1, q2 := openQuery(), openQuery()
	q2.Bounds[0][0] = wire.FromFloat(0.5)
	resp := postJSON(t, hs.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{q1, q2}}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body := decodeBody[wire.EstimateResponse](t, resp)
	if len(body.Estimates) != 2 {
		t.Fatalf("%d estimates, want 2", len(body.Estimates))
	}
	// The stub computes lo*1000; the reply must carry the exact bits.
	if got, want := body.Estimates[0].Float(), 0.25*1000; got != want {
		t.Errorf("estimate[0] = %v, want %v", got, want)
	}
	if got, want := body.Estimates[1].Float(), 0.5*1000; got != want {
		t.Errorf("estimate[1] = %v, want %v", got, want)
	}
}

func TestEstimateRejectsBadRequests(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})

	cases := map[string]struct {
		req      any
		wantCode string
	}{
		"version mismatch": {
			req:      wire.EstimateRequest{V: 99, Queries: []wire.Query{openQuery()}},
			wantCode: wire.CodeBadRequest,
		},
		"no queries": {
			req:      wire.EstimateRequest{V: wire.Version},
			wantCode: wire.CodeBadRequest,
		},
		"schema mismatch": {
			req: wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{
				{Tables: []int{0}, Bounds: [][2]wire.B64{{0, 0}}},
			}},
			wantCode: wire.CodeInvalidQuery,
		},
		"unknown fields": {
			req:      map[string]any{"v": wire.Version, "queries": []wire.Query{openQuery()}, "bogus": 1},
			wantCode: wire.CodeBadRequest,
		},
	}
	for name, tc := range cases {
		resp := postJSON(t, hs.URL+"/v1/estimate", tc.req, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if body := decodeBody[wire.ErrorResponse](t, resp); body.Code != tc.wantCode {
			t.Errorf("%s: code %q, want %q", name, body.Code, tc.wantCode)
		}
	}
}

func TestModelErrorsMapOntoWire(t *testing.T) {
	bb := &gateTarget{estErr: fmt.Errorf("boom: %w", ce.ErrInvalidQuery)}
	_, hs := newTestServer(t, bb, targetserver.Config{})
	resp := postJSON(t, hs.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid-query model error: status %d, want 400", resp.StatusCode)
	}
	if body := decodeBody[wire.ErrorResponse](t, resp); body.Code != wire.CodeInvalidQuery {
		t.Errorf("code %q, want %q", body.Code, wire.CodeInvalidQuery)
	}

	bb2 := &gateTarget{estErr: fmt.Errorf("disk on fire")}
	_, hs2 := newTestServer(t, bb2, targetserver.Config{})
	resp2 := postJSON(t, hs2.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
	if resp2.StatusCode != http.StatusInternalServerError {
		t.Errorf("internal model error: status %d, want 500", resp2.StatusCode)
	}
	if body := decodeBody[wire.ErrorResponse](t, resp2); body.Code != wire.CodeInternal {
		t.Errorf("code %q, want %q", body.Code, wire.CodeInternal)
	}
}

func TestExecuteAppliesFeedbackExactly(t *testing.T) {
	bb := &gateTarget{}
	_, hs := newTestServer(t, bb, targetserver.Config{})

	// A card whose value only survives bit-exact transport.
	card := math.Float64frombits(0x3ff123456789abcd)
	resp := postJSON(t, hs.URL+"/v1/execute", wire.ExecuteRequest{
		V:       wire.Version,
		Queries: []wire.Query{openQuery()},
		Cards:   []wire.B64{wire.FromFloat(card)},
	}, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if body := decodeBody[wire.ExecuteResponse](t, resp); body.Executed != 1 {
		t.Errorf("executed %d, want 1", body.Executed)
	}
	bb.mu.Lock()
	defer bb.mu.Unlock()
	if len(bb.executed) != 1 || len(bb.executed[0]) != 1 ||
		math.Float64bits(bb.executed[0][0]) != math.Float64bits(card) {
		t.Errorf("trainer saw %v, want exact %v", bb.executed, card)
	}

	// Mismatched cards are a bad request, and nothing reaches the model.
	resp2 := postJSON(t, hs.URL+"/v1/execute", wire.ExecuteRequest{
		V:       wire.Version,
		Queries: []wire.Query{openQuery()},
	}, "")
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched cards: status %d, want 400", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestFullQueueShedsWith429(t *testing.T) {
	gate := make(chan struct{})
	bb := &gateTarget{gate: gate, entered: make(chan struct{}, 1)}
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, bb, targetserver.Config{
		MaxBatch:    1, // no gathering: the first job alone parks the model
		QueueDepth:  1,
		BatchWindow: time.Microsecond,
		RetryAfter:  3 * time.Second,
		Telemetry:   &obs.Telemetry{Reg: reg},
	})

	// First request occupies the model goroutine (blocked on the gate),
	// second fills the 1-deep queue, third must shed fast.
	var wg sync.WaitGroup
	results := make([]int, 2)
	send := func(i int) {
		defer wg.Done()
		resp := postJSON(t, hs.URL+"/v1/estimate",
			wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
		results[i] = resp.StatusCode
		resp.Body.Close()
	}
	wg.Add(1)
	go send(0)
	<-bb.entered // the model goroutine is now parked on the gate
	wg.Add(1)
	go send(1)
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge(dflt("paced_estimate_queue_depth")).Value() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if reg.Gauge(dflt("paced_estimate_queue_depth")).Value() < 1 {
		t.Fatal("second request never queued")
	}

	shedResp := postJSON(t, hs.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
	if shedResp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", shedResp.StatusCode)
	}
	if ra := shedResp.Header.Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if body := decodeBody[wire.ErrorResponse](t, shedResp); body.Code != wire.CodeOverloaded {
		t.Errorf("code %q, want %q", body.Code, wire.CodeOverloaded)
	}
	if reg.Counter(dflt("paced_shed_total")).Value() == 0 {
		t.Error("paced_shed_total not incremented")
	}

	close(gate) // release the model loop; the two held requests finish
	wg.Wait()
	for i, code := range results {
		if code != http.StatusOK {
			t.Errorf("held request %d: status %d, want 200", i, code)
		}
	}
}

func TestPerClientRateLimit(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{
		RatePerSec: 0.001, // effectively no refill within the test
		Burst:      2,
		Telemetry:  &obs.Telemetry{Reg: reg},
	})

	est := wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, hs.URL+"/v1/estimate", est, "alice")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("alice call %d: status %d, want 200", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := postJSON(t, hs.URL+"/v1/estimate", est, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: status %d, want 429", resp.StatusCode)
	}
	if body := decodeBody[wire.ErrorResponse](t, resp); body.Code != wire.CodeRateLimited {
		t.Errorf("code %q, want %q", body.Code, wire.CodeRateLimited)
	}
	// A different identity has its own bucket.
	resp2 := postJSON(t, hs.URL+"/v1/estimate", est, "bob")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("bob: status %d, want 200", resp2.StatusCode)
	}
	resp2.Body.Close()
	if reg.Counter(dflt("paced_rate_limited_total")).Value() != 1 {
		t.Errorf("paced_rate_limited_total = %d, want 1",
			reg.Counter(dflt("paced_rate_limited_total")).Value())
	}
}

func TestMicroBatchingCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	gate := make(chan struct{})
	bb := &gateTarget{gate: gate}
	_, hs := newTestServer(t, bb, targetserver.Config{
		BatchWindow: 250 * time.Millisecond,
		Telemetry:   &obs.Telemetry{Reg: reg},
	})

	const n = 5
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSON(t, hs.URL+"/v1/estimate",
				wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}()
	}
	// All n arrive well inside the 250ms gather window opened by the
	// first; release the model once they are all enqueued or in-flight.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(dflt("paced_estimate_requests_total")).Value() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if got := reg.Counter(dflt("paced_estimate_queries_total")).Value(); got != n {
		t.Errorf("paced_estimate_queries_total = %d, want %d", got, n)
	}
	if got := reg.Counter(dflt("paced_batches_total")).Value(); got < 1 || got > 2 {
		t.Errorf("paced_batches_total = %d, want 1 (micro-batched) or at most 2", got)
	}
}

func TestDrainAnswersHeldRequestsThenRefuses(t *testing.T) {
	gate := make(chan struct{})
	bb := &gateTarget{gate: gate}
	srv, hs := newTestServer(t, bb, targetserver.Config{BatchWindow: time.Microsecond})

	// healthz is green before the drain.
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Park one request inside the model loop.
	got := make(chan int, 1)
	go func() {
		resp := postJSON(t, hs.URL+"/v1/estimate",
			wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
		got <- resp.StatusCode
		resp.Body.Close()
	}()
	time.Sleep(50 * time.Millisecond) // let it reach the gate

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining flips healthz and the API to 503 while the held request
	// is still in flight.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		r, err := http.Get(hs.URL + "/healthz")
		if err == nil {
			code := r.StatusCode
			r.Body.Close()
			if code == http.StatusServiceUnavailable {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	r2 := postJSON(t, hs.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("estimate while draining: %d, want 503", r2.StatusCode)
	}
	if body := decodeBody[wire.ErrorResponse](t, r2); body.Code != wire.CodeDraining {
		t.Errorf("code %q, want %q", body.Code, wire.CodeDraining)
	}

	close(gate) // the held request completes, then the model loop exits
	if code := <-got; code != http.StatusOK {
		t.Errorf("held request after drain: %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

func TestMetricsEndpointScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{
		Telemetry: &obs.Telemetry{Reg: reg},
	})
	resp := postJSON(t, hs.URL+"/v1/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "")
	resp.Body.Close()

	mr, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mr.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{dflt("paced_estimate_requests_total"), dflt("paced_batches_total")} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}
