package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/wire"
)

func testMeta() *query.Meta {
	return &query.Meta{
		TableNames: []string{"a", "b"},
		AttrNames:  []string{"a0", "a1", "b0"},
		AttrOffset: []int{0, 2, 3},
	}
}

func testQuery() *query.Query {
	q := query.New(testMeta())
	q.Tables[0] = true
	q.Bounds[0] = [2]float64{0.1, 0.9}
	return q
}

// echoServer answers estimates with a fixed bit pattern per query, in
// whatever codec the request body arrived in, like a real paced host.
// It records each request's query count in arrival order and parks the
// request numbered i (from 0) in holds until release(i). Every hold is
// released at cleanup, so a failed check leaves no request parked.
type echo struct {
	url   string
	mu    sync.Mutex
	sizes []int
	gates map[int]chan struct{}
}

func echoServer(t *testing.T, est float64, holds ...int) *echo {
	t.Helper()
	h := &echo{gates: map[int]chan struct{}{}}
	for _, i := range holds {
		h.gates[i] = make(chan struct{})
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, ok := wire.CodecForContentType(r.Header.Get("Content-Type"))
		if !ok {
			t.Errorf("server: unknown content type %q", r.Header.Get("Content-Type"))
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		req, err := c.DecodeEstimateRequest(raw)
		if err != nil {
			t.Errorf("server decode: %v", err)
			return
		}
		h.mu.Lock()
		gate := h.gates[len(h.sizes)]
		h.sizes = append(h.sizes, len(req.Queries))
		h.mu.Unlock()
		if gate != nil {
			<-gate
		}
		ests := make([]wire.B64, len(req.Queries))
		for i := range ests {
			ests[i] = wire.FromFloat(est)
		}
		blob, err := c.EncodeEstimateResponse(&wire.EstimateResponse{V: wire.Version, Estimates: ests})
		if err != nil {
			t.Errorf("server encode: %v", err)
			return
		}
		w.Header().Set("Content-Type", c.ContentType())
		w.Write(blob)
	}))
	t.Cleanup(func() {
		for i := range h.gates {
			h.release(i)
		}
		hs.Close()
	})
	h.url = hs.URL
	return h
}

// release lets the request numbered i answer; a second call is a no-op.
func (h *echo) release(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g := h.gates[i]; g != nil {
		close(g)
		h.gates[i] = nil
	}
}

// requestSizes returns the query count of every request seen so far.
func (h *echo) requestSizes() []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]int(nil), h.sizes...)
}

func newTarget(t *testing.T, url string, opts remote.Options) *remote.RemoteTarget {
	t.Helper()
	c, err := remote.NewClient(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	rt := c.Target(opts.Tenant)
	t.Cleanup(rt.Close)
	return rt
}

func TestNewRejectsBadURL(t *testing.T) {
	for _, bad := range []string{"", "localhost:8645", "ftp://x", "tcp://1.2.3.4"} {
		if _, err := remote.NewClient(bad, remote.Options{}); err == nil {
			t.Errorf("NewClient(%q) accepted", bad)
		}
	}
	if _, err := remote.NewClient("http://127.0.0.1:1/", remote.Options{}); err != nil {
		t.Errorf("trailing slash rejected: %v", err)
	}
}

func TestEstimateExactBits(t *testing.T) {
	// A value float JSON could not carry: a NaN with payload.
	nan := math.Float64frombits(0x7ff800000000beef)
	rt := newTarget(t, echoServer(t, nan).url, remote.Options{CoalesceWindow: 0})
	got, err := rt.EstimateContext(context.Background(), testQuery())
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != 0x7ff800000000beef {
		t.Errorf("estimate bits %#x, want 0x7ff800000000beef", math.Float64bits(got))
	}
}

// TestErrorClassification pins the 429/4xx/5xx/network taxonomy the
// retry layer depends on.
func TestErrorClassification(t *testing.T) {
	cases := []struct {
		name    string
		status  int
		headers map[string]string
		wantIs  error
		wantNot error
	}{
		{"429 is overloaded", http.StatusTooManyRequests,
			map[string]string{"Retry-After": "2"}, remote.ErrOverloaded, ce.ErrInvalidQuery},
		{"400 is invalid query", http.StatusBadRequest, nil, ce.ErrInvalidQuery, remote.ErrOverloaded},
		{"404 is invalid query", http.StatusNotFound, nil, ce.ErrInvalidQuery, remote.ErrUnavailable},
		{"500 is unavailable", http.StatusInternalServerError, nil, remote.ErrUnavailable, ce.ErrInvalidQuery},
		{"503 is unavailable", http.StatusServiceUnavailable, nil, remote.ErrUnavailable, ce.ErrInvalidQuery},
		{"503 with Retry-After is overloaded", http.StatusServiceUnavailable,
			map[string]string{"Retry-After": "4"}, remote.ErrOverloaded, remote.ErrUnavailable},
		{"500 with Retry-After stays unavailable", http.StatusInternalServerError,
			map[string]string{"Retry-After": "4"}, remote.ErrUnavailable, remote.ErrOverloaded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				for k, v := range tc.headers {
					w.Header().Set(k, v)
				}
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(wire.ErrorResponse{V: wire.Version, Code: "x", Error: "y"})
			}))
			defer hs.Close()
			rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})
			_, err := rt.EstimateContext(context.Background(), testQuery())
			if !errors.Is(err, tc.wantIs) {
				t.Errorf("err %v, want errors.Is %v", err, tc.wantIs)
			}
			if errors.Is(err, tc.wantNot) {
				t.Errorf("err %v must not match %v", err, tc.wantNot)
			}
		})
	}
}

// TestRetryAfterHintSurfaces pins the OverloadError contract the
// resilience layer depends on: shed replies expose the server's parsed
// Retry-After duration through RetryAfterHint, and garbage headers
// degrade to "no hint" rather than an error.
func TestRetryAfterHintSurfaces(t *testing.T) {
	cases := []struct {
		name     string
		status   int
		header   string
		wantHint time.Duration
	}{
		{"429 with seconds", http.StatusTooManyRequests, "2", 2 * time.Second},
		{"429 without header", http.StatusTooManyRequests, "", 0},
		{"429 with garbage", http.StatusTooManyRequests, "soon", 0},
		{"429 with negative", http.StatusTooManyRequests, "-3", 0},
		{"503 with seconds", http.StatusServiceUnavailable, "7", 7 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				w.WriteHeader(tc.status)
				json.NewEncoder(w).Encode(wire.ErrorResponse{V: wire.Version, Code: "overloaded", Error: "shed"})
			}))
			defer hs.Close()
			rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})
			_, err := rt.EstimateContext(context.Background(), testQuery())
			if !errors.Is(err, remote.ErrOverloaded) {
				t.Fatalf("err %v, want ErrOverloaded", err)
			}
			var oe *remote.OverloadError
			if !errors.As(err, &oe) {
				t.Fatalf("err %T does not expose *OverloadError", err)
			}
			if oe.RetryAfterHint() != tc.wantHint {
				t.Errorf("RetryAfterHint = %v, want %v", oe.RetryAfterHint(), tc.wantHint)
			}
			if oe.Status != tc.status {
				t.Errorf("Status = %d, want %d", oe.Status, tc.status)
			}
		})
	}
}

func TestConnectionRefusedIsUnavailable(t *testing.T) {
	hs := httptest.NewServer(http.NotFoundHandler())
	hs.Close() // nothing listens any more
	rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})
	_, err := rt.EstimateContext(context.Background(), testQuery())
	if !errors.Is(err, remote.ErrUnavailable) {
		t.Errorf("err %v, want ErrUnavailable", err)
	}
	if st := rt.Stats(); st.Unavailable != 1 {
		t.Errorf("Stats.Unavailable = %d, want 1", st.Unavailable)
	}
}

// TestContextErrorsAreNotTransient: an expired caller deadline must
// surface as the context's own error — the retry layer treats those as
// permanent, otherwise cancellation would loop.
func TestContextErrorsAreNotTransient(t *testing.T) {
	block := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-block:
		case <-r.Context().Done():
		}
	}))
	defer hs.Close()
	// Unblock before hs.Close (defers run LIFO): the handler never reads
	// the body, so the server cannot notice the client abort on its own.
	defer close(block)
	rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := rt.EstimateContext(ctx, testQuery())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err %v, want DeadlineExceeded", err)
	}
	if errors.Is(err, remote.ErrUnavailable) || errors.Is(err, remote.ErrOverloaded) {
		t.Errorf("context expiry classified transient: %v", err)
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// estimateAsync runs one estimate on its own goroutine and delivers its
// error, checking the echoed value on success.
func estimateAsync(t *testing.T, ctx context.Context, rt *remote.RemoteTarget) <-chan error {
	done := make(chan error, 1)
	go func() {
		est, err := rt.EstimateContext(ctx, testQuery())
		if err == nil && est != 7 {
			t.Errorf("estimate %v, want 7", est)
		}
		done <- err
	}()
	return done
}

// result waits for an estimateAsync call's error, failing the test if
// the call has not returned within 5 s.
func result(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("estimate did not return within 5 s")
		return nil
	}
}

func checkSizes(t *testing.T, h *echo, want ...int) {
	t.Helper()
	if got := h.requestSizes(); !slices.Equal(got, want) {
		t.Errorf("queries per wire request %v, want %v", got, want)
	}
}

// TestLoneEstimateSendsAtOnce: with no request in flight, an estimate
// goes out at once, whatever the window.
func TestLoneEstimateSendsAtOnce(t *testing.T) {
	h := echoServer(t, 7)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: 10 * time.Second})
	start := time.Now()
	if _, err := rt.EstimateContext(context.Background(), testQuery()); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("lone estimate took %v; it must not wait for companions", elapsed)
	}
	checkSizes(t, h, 1)
	if st := rt.Stats(); st.Coalesced != 0 {
		t.Errorf("Stats.Coalesced = %d, want 0", st.Coalesced)
	}
}

// TestQueuedCallsRideTheNextRequest: calls arriving while a request is
// in flight queue, and its completion sends them all as one request.
func TestQueuedCallsRideTheNextRequest(t *testing.T) {
	h := echoServer(t, 7, 0)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: time.Millisecond})
	const n = 8
	done := []<-chan error{estimateAsync(t, context.Background(), rt)}
	waitFor(t, "the first request", func() bool { return len(h.requestSizes()) == 1 })
	for i := 1; i < n; i++ {
		done = append(done, estimateAsync(t, context.Background(), rt))
	}
	waitFor(t, "n-1 queued calls", func() bool { return rt.Stats().Coalesced == n-1 })
	checkSizes(t, h, 1)
	h.release(0)
	for i, d := range done {
		if err := result(t, d); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
	checkSizes(t, h, 1, n-1)
}

// TestFullBatchGoesWhileHeld: a queue that fills MaxBatch goes out at
// once, even with a request in flight.
func TestFullBatchGoesWhileHeld(t *testing.T) {
	h := echoServer(t, 7, 0)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: 10 * time.Second, MaxBatch: 2})
	first := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the first request", func() bool { return len(h.requestSizes()) == 1 })
	b, c := estimateAsync(t, context.Background(), rt), estimateAsync(t, context.Background(), rt)
	for _, d := range []<-chan error{b, c} {
		if err := result(t, d); err != nil {
			t.Fatal(err)
		}
	}
	checkSizes(t, h, 1, 2)
	h.release(0)
	if err := result(t, first); err != nil {
		t.Fatal(err)
	}
	checkSizes(t, h, 1, 2)
}

// TestHandOffWaitsForTheLastRequest: a full batch counts toward the
// in-flight cap, so its completion leaves the queue to the small request
// still in flight, and the queue goes only when that one completes.
func TestHandOffWaitsForTheLastRequest(t *testing.T) {
	h := echoServer(t, 7, 0, 1)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: time.Millisecond, MaxBatch: 2})
	small := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the small request", func() bool { return len(h.requestSizes()) == 1 })
	b := estimateAsync(t, context.Background(), rt)
	waitFor(t, "one queued call", func() bool { return rt.Stats().Coalesced == 1 })
	c := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the full batch", func() bool { return len(h.requestSizes()) == 2 })
	d := estimateAsync(t, context.Background(), rt)
	waitFor(t, "a call queued behind both", func() bool { return rt.Stats().Coalesced == 2 })

	h.release(1) // the full batch completes; the small request is still held
	for _, done := range []<-chan error{b, c} {
		if err := result(t, done); err != nil {
			t.Fatal(err)
		}
	}
	// c sent the full batch on its own goroutine, so its return follows
	// that request's completion. No request may follow it: the queued
	// call waits for the small one. The pause gives a wrong hand-off,
	// which would start a goroutine, time to reach the server.
	time.Sleep(50 * time.Millisecond)
	checkSizes(t, h, 1, 2)
	select {
	case err := <-d:
		t.Fatalf("queued call answered while the small request was held (err %v)", err)
	default:
	}

	h.release(0)
	for _, done := range []<-chan error{small, d} {
		if err := result(t, done); err != nil {
			t.Fatal(err)
		}
	}
	checkSizes(t, h, 1, 2, 1)
}

// TestQueuedCallerCancelReturnsCtxErr: a queued caller whose context
// ends returns ctx.Err() at once, and its query still rides the next
// request.
func TestQueuedCallerCancelReturnsCtxErr(t *testing.T) {
	h := echoServer(t, 7, 0)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: time.Millisecond})
	first := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the first request", func() bool { return len(h.requestSizes()) == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	gone := estimateAsync(t, ctx, rt)
	waitFor(t, "the queued call", func() bool { return rt.Stats().Coalesced == 1 })
	cancel()
	if err := result(t, gone); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued call: err %v, want context.Canceled", err)
	}
	h.release(0)
	if err := result(t, first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the cancelled call's request", func() bool { return len(h.requestSizes()) == 2 })
	checkSizes(t, h, 1, 1)
}

// TestCloseSendsTheQueue: Close sends the queued calls at once, without
// waiting for the request in flight.
func TestCloseSendsTheQueue(t *testing.T) {
	h := echoServer(t, 7, 0)
	rt := newTarget(t, h.url, remote.Options{CoalesceWindow: time.Millisecond})
	held := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the held request", func() bool { return len(h.requestSizes()) == 1 })
	queued := estimateAsync(t, context.Background(), rt)
	waitFor(t, "the queued call", func() bool { return rt.Stats().Coalesced == 1 })
	rt.Close()
	if err := result(t, queued); err != nil {
		t.Fatalf("queued call after Close: %v", err)
	}
	checkSizes(t, h, 1, 1)
	h.release(0)
	if err := result(t, held); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	rt := newTarget(t, echoServer(t, 3).url, remote.Options{CoalesceWindow: 0})
	for i := 0; i < 4; i++ {
		if _, err := rt.EstimateContext(context.Background(), testQuery()); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Requests != 4 || st.Queries != 4 {
		t.Errorf("Stats = %+v, want 4 requests / 4 queries", st)
	}
}
