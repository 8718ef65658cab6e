package remote_test

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pace/internal/ce"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/wire"
)

// execCall is what the fake execute server saw on one request.
type execCall struct {
	token, codec string
	cards        []uint64
}

// execServer fakes a paced host's routed execute for the default
// tenant. Each request is answered by the next scripted status (200
// once the script runs out), so the client's reaction to every reply
// class can be driven deterministically.
type execServer struct {
	hs *httptest.Server

	mu           sync.Mutex
	calls        []execCall
	script       []int
	rejectBinary bool // 415 every binary request
}

func newExecServer(t *testing.T, script ...int) *execServer {
	t.Helper()
	es := &execServer{script: script}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/targets/default/execute", func(w http.ResponseWriter, r *http.Request) {
		c, ok := wire.CodecForContentType(r.Header.Get("Content-Type"))
		if !ok {
			t.Errorf("unknown content type %q", r.Header.Get("Content-Type"))
			return
		}
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		es.mu.Lock()
		defer es.mu.Unlock()
		call := execCall{token: r.Header.Get(wire.ExecuteTokenHeader), codec: c.Name()}
		if es.rejectBinary && c.Name() == "binary" {
			es.calls = append(es.calls, call)
			w.WriteHeader(http.StatusUnsupportedMediaType)
			return
		}
		req, err := c.DecodeExecuteRequest(raw)
		if err != nil {
			t.Errorf("decode: %v", err)
			return
		}
		for _, b := range req.Cards {
			call.cards = append(call.cards, uint64(b))
		}
		es.calls = append(es.calls, call)
		status := http.StatusOK
		if len(es.script) > 0 {
			status, es.script = es.script[0], es.script[1:]
		}
		if status != http.StatusOK {
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			w.WriteHeader(status)
			return
		}
		blob, _ := c.EncodeExecuteResponse(&wire.ExecuteResponse{V: wire.Version, Executed: len(req.Queries)})
		w.Header().Set("Content-Type", c.ContentType())
		w.Write(blob) //nolint:errcheck
	})
	es.hs = httptest.NewServer(mux)
	t.Cleanup(es.hs.Close)
	return es
}

func (es *execServer) seen() []execCall {
	es.mu.Lock()
	defer es.mu.Unlock()
	return append([]execCall(nil), es.calls...)
}

// execWorkload builds n distinct queries whose cards are NaNs with
// payloads, a bit pattern JSON floats cannot carry.
func execWorkload(n int) ([]*query.Query, []float64) {
	qs := make([]*query.Query, n)
	cards := make([]float64, n)
	for i := range qs {
		q := query.New(testMeta())
		q.Tables[0] = true
		q.Bounds[0] = [2]float64{float64(i) / float64(n+1), 0.9}
		qs[i] = q
		cards[i] = math.Float64frombits(0x7ff8000000000000 | uint64(i))
	}
	return qs, cards
}

// TestExecuteSendsFreshTokenPerCall: an execute is one binary request
// carrying its cards bit-exactly under a valid token, and a deliberate
// repeat after a success is a new call with a new token.
func TestExecuteSendsFreshTokenPerCall(t *testing.T) {
	es := newExecServer(t)
	rt := newTarget(t, es.hs.URL, remote.Options{})
	qs, cards := execWorkload(5)
	for i := 0; i < 2; i++ {
		if err := rt.ExecuteWorkload(context.Background(), qs, cards); err != nil {
			t.Fatal(err)
		}
	}
	calls := es.seen()
	if len(calls) != 2 {
		t.Fatalf("%d requests for 2 executes, want 2", len(calls))
	}
	for i, c := range calls {
		if !wire.ValidExecutionToken(c.token) || c.codec != "binary" {
			t.Errorf("call %d: token %q codec %s, want a valid token on binary", i, c.token, c.codec)
		}
		for j, b := range c.cards {
			if b != math.Float64bits(cards[j]) {
				t.Fatalf("call %d card %d = %#x, want %#x", i, j, b, math.Float64bits(cards[j]))
			}
		}
	}
	if calls[0].token == calls[1].token {
		t.Errorf("repeat after a success reused token %q", calls[0].token)
	}
}

// TestExecuteTokenAfterFailure: resending the workload of an execute
// that failed transiently is its retry and reuses its token; after a
// permanent failure, or for a different workload, the token is fresh.
func TestExecuteTokenAfterFailure(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
		reuse  bool
		class  error
	}{
		{"429 overloaded", http.StatusTooManyRequests, true, remote.ErrOverloaded},
		{"503 unavailable", http.StatusServiceUnavailable, true, remote.ErrUnavailable},
		{"500 unavailable", http.StatusInternalServerError, true, remote.ErrUnavailable},
		{"400 invalid", http.StatusBadRequest, false, ce.ErrInvalidQuery},
	} {
		t.Run(tc.name, func(t *testing.T) {
			es := newExecServer(t, tc.status)
			rt := newTarget(t, es.hs.URL, remote.Options{})
			qs, cards := execWorkload(3)
			if err := rt.ExecuteWorkload(context.Background(), qs, cards); !errors.Is(err, tc.class) {
				t.Fatalf("first execute: %v, want %v", err, tc.class)
			}
			if err := rt.ExecuteWorkload(context.Background(), qs, cards); err != nil {
				t.Fatal(err)
			}
			if err := rt.ExecuteWorkload(context.Background(), qs, cards); err != nil {
				t.Fatal(err)
			}
			calls := es.seen()
			if got := calls[0].token == calls[1].token; got != tc.reuse {
				t.Errorf("retry reused the failed call's token: %v, want %v", got, tc.reuse)
			}
			if calls[1].token == calls[2].token {
				t.Error("repeat after the retry succeeded reused its token")
			}
		})
	}

	es := newExecServer(t, http.StatusServiceUnavailable)
	rt := newTarget(t, es.hs.URL, remote.Options{})
	qs, cards := execWorkload(3)
	rt.ExecuteWorkload(context.Background(), qs, cards) //nolint:errcheck // fails by script
	if err := rt.ExecuteWorkload(context.Background(), qs[:2], cards[:2]); err != nil {
		t.Fatal(err)
	}
	if calls := es.seen(); calls[0].token == calls[1].token {
		t.Error("a different workload reused the failed call's token")
	}
}

// TestExecuteDowngradesOn415: a server without the binary codec gets
// the execute resent in JSON, under the same token, and the downgrade
// sticks.
func TestExecuteDowngradesOn415(t *testing.T) {
	es := newExecServer(t)
	es.rejectBinary = true
	rt := newTarget(t, es.hs.URL, remote.Options{})
	qs, cards := execWorkload(4)
	for i := 0; i < 2; i++ {
		if err := rt.ExecuteWorkload(context.Background(), qs, cards); err != nil {
			t.Fatal(err)
		}
	}
	calls := es.seen()
	if len(calls) != 3 || calls[0].codec != "binary" || calls[1].codec != "json" || calls[2].codec != "json" {
		t.Fatalf("requests %+v, want one refused binary execute, then two JSON ones", calls)
	}
	if calls[0].token != calls[1].token || calls[1].token == calls[2].token {
		t.Errorf("tokens %q %q %q: the JSON resend must keep its call's token, the repeat must not",
			calls[0].token, calls[1].token, calls[2].token)
	}
	if st := rt.Stats(); st.Codec != "json" {
		t.Errorf("Stats().Codec = %q after the 415, want json", st.Codec)
	}
}

// TestExecuteWorkloadRejectsOversize: an execute is never split, so a
// workload over the wire cap fails before anything is sent, and one at
// the cap is one request.
func TestExecuteWorkloadRejectsOversize(t *testing.T) {
	es := newExecServer(t)
	rt := newTarget(t, es.hs.URL, remote.Options{})
	qs, cards := execWorkload(wire.MaxBatch + 1)
	if err := rt.ExecuteWorkload(context.Background(), qs, cards); !errors.Is(err, ce.ErrInvalidQuery) {
		t.Fatalf("oversize execute: %v, want ErrInvalidQuery", err)
	}
	if rt.Stats().Requests != 0 {
		t.Fatal("an oversize workload reached the wire")
	}
	if err := rt.ExecuteWorkload(context.Background(), qs[:wire.MaxBatch], cards[:wire.MaxBatch]); err != nil {
		t.Fatal(err)
	}
	if calls := es.seen(); len(calls) != 1 || len(calls[0].cards) != wire.MaxBatch {
		t.Fatalf("a full-cap execute crossed as %d requests, want 1 of %d queries", len(calls), wire.MaxBatch)
	}

	// Length mismatch is a permanent, client-side error: nothing sent.
	if err := rt.ExecuteWorkload(context.Background(), qs[:2], cards[:1]); !errors.Is(err, ce.ErrInvalidQuery) {
		t.Errorf("mismatch err %v, want ErrInvalidQuery", err)
	}
	if rt.Stats().Requests != 1 {
		t.Error("mismatched workload still reached the wire")
	}
}
