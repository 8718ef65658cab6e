package router_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/resilience"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// execGate parks the first execute that arrives once it is armed, until
// release is closed. A nil gate never parks.
type execGate struct {
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *execGate) hold() {
	if g != nil && g.armed.CompareAndSwap(true, false) {
		close(g.entered)
		<-g.release
	}
}

// worlds is a seqTarget factory that keeps every world it builds, so a
// test can inspect the one a backend hosts.
type worlds struct {
	gate *execGate

	mu    sync.Mutex
	built []*seqTarget
}

func (w *worlds) factory(context.Context, tenant.Spec) (ce.Target, *query.Meta, error) {
	st := &seqTarget{gate: w.gate}
	w.mu.Lock()
	w.built = append(w.built, st)
	w.mu.Unlock()
	return st, testMeta(), nil
}

// latest is the world built last: the tenant's current one.
func (w *worlds) latest() *seqTarget {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.built[len(w.built)-1]
}

// execStack is one way to reach tenant "t": straight at a paced, or
// through a router in front of two.
type execStack struct {
	name   string
	url    string // base URL; the tenant is "t"
	worlds *worlds
}

func execStacks(t *testing.T) []execStack {
	t.Helper()
	direct := &worlds{}
	cfg := targetserver.Config{Factory: direct.factory}
	reg := tenant.NewRegistry(cfg.Factory, cfg.TenantConfig())
	if _, err := reg.Create(context.Background(), tenant.Spec{ID: "t"}); err != nil {
		t.Fatal(err)
	}
	srv := targetserver.NewMulti(reg, cfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck

	routed := &worlds{}
	f := newFleetOf(t, 2, router.Config{}, routed.factory)
	if resp, _ := createTenant(t, f, "t", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create through the router: %d", resp.StatusCode)
	}
	return []execStack{{"paced", "http://" + addr, direct}, {"router", f.url, routed}}
}

// dialT dials tenant "t" at base over transport (nil = default).
func dialT(t *testing.T, base string, transport http.RoundTripper) *remote.RemoteTarget {
	t.Helper()
	c, err := remote.NewClient(base, remote.Options{ClientID: "exec-test", Client: &http.Client{Transport: transport}})
	if err != nil {
		t.Fatal(err)
	}
	rt := c.Target("t")
	t.Cleanup(rt.Close)
	return rt
}

// seqWorkload is one query per card.
func seqWorkload(cards ...float64) []*query.Query {
	qs := make([]*query.Query, len(cards))
	for i := range qs {
		q := query.New(testMeta())
		q.Tables[0] = true
		q.Bounds[0] = [2]float64{0.25, 0.75}
		qs[i] = q
	}
	return qs
}

// foldEstimate is what seqTarget answers for openQuery after absorbing
// cards, in order, exactly once each.
func foldEstimate(cards ...float64) float64 {
	sum := 0.0
	for _, c := range cards {
		sum = math.Mod(sum*3+c, 1e9)
	}
	return 0.25*1000 + sum
}

func estimateT(t *testing.T, rt *remote.RemoteTarget) float64 {
	t.Helper()
	est, err := rt.EstimateContext(context.Background(), seqWorkload(0)[0])
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// dropFirstExecuteReply applies the first execute it carries and then
// loses the reply, as a connection reset after the server answered.
type dropFirstExecuteReply struct{ dropped atomic.Bool }

func (d *dropFirstExecuteReply) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/execute") || !d.dropped.CompareAndSwap(false, true) {
		return resp, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return nil, errors.New("connection reset after the reply was sent")
}

// TestExecuteLostAckAppliesOnce: the reply to an applied execute is
// lost, and the retry layer's whole-call retry is acked without a second
// retrain.
func TestExecuteLostAckAppliesOnce(t *testing.T) {
	for _, st := range execStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			rt := dialT(t, st.url, &dropFirstExecuteReply{})
			pol := resilience.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}
			attempts, err := pol.Do(context.Background(), nil, func(ctx context.Context) error {
				return rt.ExecuteWorkload(ctx, seqWorkload(3, 1), []float64{3, 1})
			})
			if err != nil || attempts != 2 {
				t.Fatalf("execute: %d attempts, err %v; want 2 attempts and success", attempts, err)
			}
			if got, want := estimateT(t, rt), foldEstimate(3, 1); got != want {
				t.Fatalf("estimate %v, want %v: the retry of a lost ack applied the workload again", got, want)
			}
		})
	}
}

// TestExecuteRepeatAppliesTwice: the same workload executed twice on
// purpose, both acked, is applied twice.
func TestExecuteRepeatAppliesTwice(t *testing.T) {
	for _, st := range execStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			rt := dialT(t, st.url, nil)
			for i := 0; i < 2; i++ {
				if err := rt.ExecuteWorkload(context.Background(), seqWorkload(3, 1), []float64{3, 1}); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := estimateT(t, rt), foldEstimate(3, 1, 3, 1); got != want {
				t.Fatalf("estimate %v, want %v: a deliberate repeat was not applied", got, want)
			}
		})
	}
}

// TestExecuteIsOneRetrain: an execute larger than the server's 64-query
// micro-batch reaches the model as one ExecuteWorkload call, leaving the
// same model an in-process execute does.
func TestExecuteIsOneRetrain(t *testing.T) {
	cards := make([]float64, 100)
	for i := range cards {
		cards[i] = float64(i%7 + 1)
	}
	local := &seqTarget{}
	if err := local.ExecuteWorkload(context.Background(), seqWorkload(cards...), cards); err != nil {
		t.Fatal(err)
	}
	want, _ := local.EstimateContext(context.Background(), seqWorkload(0)[0])
	for _, st := range execStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			rt := dialT(t, st.url, nil)
			if err := rt.ExecuteWorkload(context.Background(), seqWorkload(cards...), cards); err != nil {
				t.Fatal(err)
			}
			w := st.worlds.latest()
			w.mu.Lock()
			execs := w.execs
			w.mu.Unlock()
			if execs != 1 {
				t.Errorf("a %d-query execute reached the model as %d retrains, want 1", len(cards), execs)
			}
			if got := estimateT(t, rt); got != want {
				t.Errorf("estimate %v, want the in-process %v", got, want)
			}
		})
	}
}

// countingTransport counts the requests it carries.
type countingTransport struct{ n atomic.Int64 }

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(req)
}

// TestExecuteOversizeSendsNothing: a workload over the wire cap fails
// as invalid before any request leaves the client.
func TestExecuteOversizeSendsNothing(t *testing.T) {
	cards := make([]float64, wire.MaxBatch+1)
	for _, st := range execStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			ct := &countingTransport{}
			rt := dialT(t, st.url, ct)
			err := rt.ExecuteWorkload(context.Background(), seqWorkload(cards...), cards)
			if !errors.Is(err, ce.ErrInvalidQuery) {
				t.Fatalf("oversize execute: %v, want ErrInvalidQuery", err)
			}
			if n := ct.n.Load(); n != 0 {
				t.Fatalf("oversize execute sent %d requests, want 0", n)
			}
		})
	}
}

// TestExecuteBadTokenIs400: a malformed execute token answers 400
// bad_request and applies nothing.
func TestExecuteBadTokenIs400(t *testing.T) {
	for _, st := range execStacks(t) {
		t.Run(st.name, func(t *testing.T) {
			blob, err := wire.Binary.EncodeExecuteRequest(&wire.ExecuteRequest{
				V: wire.Version, Queries: []wire.Query{openQuery()}, Cards: wire.FromFloats([]float64{5}),
			})
			if err != nil {
				t.Fatal(err)
			}
			req, err := http.NewRequest(http.MethodPost, st.url+"/v1/targets/t/execute", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", wire.BinaryContentType)
			req.Header.Set(wire.ExecuteTokenHeader, "not a token")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), wire.CodeBadRequest) {
				t.Fatalf("bad token: %d %s, want 400 %s", resp.StatusCode, raw, wire.CodeBadRequest)
			}
			if got, want := estimateT(t, dialT(t, st.url, nil)), foldEstimate(); got != want {
				t.Fatalf("estimate %v after a rejected execute, want the untouched %v", got, want)
			}
		})
	}
}

// TestFailoverMidExecuteExactlyOnce kills the hosting backend while an
// execute is being applied there. The router rebuilds the tenant from
// its journal on the survivor, the client's whole-call retry lands
// there, and seqTarget's order-sensitive fold shows every execute
// applied exactly once, in order.
func TestFailoverMidExecuteExactlyOnce(t *testing.T) {
	gate := &execGate{entered: make(chan struct{}), release: make(chan struct{})}
	w := &worlds{gate: gate}
	f := newFleetOf(t, 2, router.Config{}, w.factory)
	t.Cleanup(func() { close(gate.release) }) // before the fleet closes
	if resp, _ := createTenant(t, f, "t", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	rt := dialT(t, f.url, nil)
	if err := rt.ExecuteWorkload(context.Background(), seqWorkload(3, 1), []float64{3, 1}); err != nil {
		t.Fatal(err)
	}

	gate.armed.Store(true)
	type outcome struct {
		attempts int
		err      error
	}
	done := make(chan outcome, 1)
	go func() {
		pol := resilience.RetryPolicy{MaxAttempts: 60, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
		n, err := pol.Do(context.Background(), nil, func(ctx context.Context) error {
			return rt.ExecuteWorkload(ctx, seqWorkload(4, 1), []float64{4, 1})
		})
		done <- outcome{n, err}
	}()
	<-gate.entered
	victim, victimURL := f.hostOf(t, "t")
	victim.Kill()

	res := <-done
	if res.err != nil || res.attempts < 2 {
		t.Fatalf("execute across the kill: %d attempts, err %v; want a retry that succeeds", res.attempts, res.err)
	}
	if got, want := estimateT(t, rt), foldEstimate(3, 1, 4, 1); got != want {
		t.Fatalf("post-failover estimate %v, want %v: an execute was dropped, duplicated or reordered", got, want)
	}
	if _, host := f.hostOf(t, "t"); host == victimURL {
		t.Fatal("tenant still placed on the killed backend")
	}
}
