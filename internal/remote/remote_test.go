package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
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

// echoServer answers estimates with a fixed bit pattern per query and
// counts requests and queries. It speaks whatever codec the request
// body arrived in, like a real paced host.
func echoServer(t *testing.T, est float64) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var reqs, queries atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Add(1)
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
		queries.Add(int64(len(req.Queries)))
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
	t.Cleanup(hs.Close)
	return hs, &reqs, &queries
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
	hs, _, _ := echoServer(t, nan)
	rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})
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

// TestCoalescingMergesConcurrentCalls: concurrent estimates inside one
// window ride one wire request.
func TestCoalescingMergesConcurrentCalls(t *testing.T) {
	hs, reqs, queries := echoServer(t, 7)
	rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 100 * time.Millisecond})

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			est, err := rt.EstimateContext(context.Background(), testQuery())
			if err == nil && est != 7 {
				t.Errorf("estimate %v, want 7", est)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := reqs.Load(); got != 1 {
		t.Errorf("%d wire requests, want 1 (coalesced)", got)
	}
	if got := queries.Load(); got != n {
		t.Errorf("%d queries crossed, want %d", got, n)
	}
	if st := rt.Stats(); st.Coalesced != n-1 {
		t.Errorf("Stats.Coalesced = %d, want %d", st.Coalesced, n-1)
	}
}

// TestMaxBatchFlushesEarly: hitting MaxBatch flushes without waiting
// out the window.
func TestMaxBatchFlushesEarly(t *testing.T) {
	hs, reqs, _ := echoServer(t, 1)
	rt := newTarget(t, hs.URL, remote.Options{
		CoalesceWindow: 10 * time.Second, // would time the test out if waited
		MaxBatch:       2,
	})
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.EstimateContext(context.Background(), testQuery()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("flush waited %v; MaxBatch should flush immediately", elapsed)
	}
	if got := reqs.Load(); got != 1 {
		t.Errorf("%d wire requests, want 1", got)
	}
}

func TestStatsCountTraffic(t *testing.T) {
	hs, _, _ := echoServer(t, 3)
	rt := newTarget(t, hs.URL, remote.Options{CoalesceWindow: 0})
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
