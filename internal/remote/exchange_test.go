package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pace/internal/obs"
	"pace/internal/remote"
	"pace/internal/wire"
)

// adminHeaders is what an admin server saw on one request.
type adminHeaders struct {
	method, path        string
	trace, client, auth string
}

// adminServer answers the tenant admin surface with canned successes
// and records every request's headers.
func adminServer(t *testing.T) (*httptest.Server, func() []adminHeaders) {
	t.Helper()
	var mu sync.Mutex
	var seen []adminHeaders
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, adminHeaders{
			method: r.Method, path: r.URL.Path,
			trace:  r.Header.Get(wire.TraceHeader),
			client: r.Header.Get(wire.ClientHeader),
			auth:   r.Header.Get("Authorization"),
		})
		mu.Unlock()
		var resp any
		switch {
		case r.URL.Path == "/healthz":
			resp = wire.HealthzResponse{Status: "ok", Tenants: map[string]string{"a": "ready"}}
		case r.Method == http.MethodPost:
			resp = wire.CreateTargetResponse{V: wire.Version, Target: wire.TargetInfo{TargetSpec: wire.TargetSpec{ID: "a"}, State: "ready"}}
		case r.Method == http.MethodDelete:
			resp = wire.DeleteTargetResponse{V: wire.Version, Deleted: "a"}
		default:
			resp = wire.ListTargetsResponse{V: wire.Version}
		}
		w.Header().Set("Content-Type", wire.JSONContentType)
		json.NewEncoder(w).Encode(resp) //nolint:errcheck
	}))
	t.Cleanup(hs.Close)
	return hs, func() []adminHeaders {
		mu.Lock()
		defer mu.Unlock()
		return append([]adminHeaders(nil), seen...)
	}
}

// tracedContext returns a context whose telemetry records spans into
// the returned buffer; flush closes the tracer and parses what it wrote.
func tracedContext(t *testing.T) (context.Context, func() []obs.SpanRecord) {
	t.Helper()
	buf := &bytes.Buffer{}
	tel := &obs.Telemetry{Tracer: obs.NewTracer(buf)}
	return obs.NewContext(context.Background(), tel), func() []obs.SpanRecord {
		if err := tel.Tracer.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ParseTrace(buf)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
}

// TestAdminCallsAreTraced: under a traced context every admin call
// carries the trace, identity and bearer headers, and the trace header
// names the call's own rpc_admin_* span.
func TestAdminCallsAreTraced(t *testing.T) {
	hs, seen := adminServer(t)
	c, err := remote.NewClient(hs.URL, remote.Options{ClientID: "ops", AuthToken: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	ctx, flush := tracedContext(t)

	if _, err := admin.CreateTarget(ctx, wire.TargetSpec{ID: "a", Dataset: "dmv", Model: "fcn"}); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.ListTargets(ctx); err != nil {
		t.Fatal(err)
	}
	if err := admin.DeleteTarget(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	spans := map[uint64]string{}
	for _, r := range flush() {
		spans[r.ID] = r.Name
	}
	want := []struct{ method, span string }{
		{http.MethodPost, "rpc_admin_create"},
		{http.MethodGet, "rpc_admin_list"},
		{http.MethodDelete, "rpc_admin_delete"},
	}
	got := seen()
	if len(got) != len(want) {
		t.Fatalf("server saw %d requests, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		h := got[i]
		if h.method != w.method {
			t.Errorf("request %d: method %s, want %s", i, h.method, w.method)
		}
		if h.client != "ops" || h.auth != "Bearer s3cret" {
			t.Errorf("%s %s: identity %q, auth %q", h.method, h.path, h.client, h.auth)
		}
		_, span, ok := obs.ParseTraceParent(h.trace)
		if !ok {
			t.Errorf("%s %s: no valid %s header (%q)", h.method, h.path, wire.TraceHeader, h.trace)
			continue
		}
		if spans[span] != w.span {
			t.Errorf("%s %s: trace header names span %q, want %s", h.method, h.path, spans[span], w.span)
		}
	}
}

// TestAdminHealthPollsAreUnspanned: how often WaitReady polls depends on
// timing, so neither it nor Healthz may add spans to a trace.
func TestAdminHealthPollsAreUnspanned(t *testing.T) {
	hs, _ := adminServer(t)
	c, err := remote.NewClient(hs.URL, remote.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	admin := c.Admin()
	ctx, flush := tracedContext(t)
	if _, err := admin.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	if err := admin.WaitReady(ctx, "a", time.Second); err != nil {
		t.Fatal(err)
	}
	if spans := flush(); len(spans) != 0 {
		t.Errorf("health polls emitted %d spans, want 0: %+v", len(spans), spans)
	}
}

// TestExchangeRelaysHeadersAndStatus pins the raw exchange the router
// proxies through: any status comes back as a reply (no
// classification), extra headers travel with empty values dropped, an
// empty Accept is not sent, and the caller's identity overrides the
// Client's.
func TestExchangeRelaysHeadersAndStatus(t *testing.T) {
	var got http.Header
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = r.Header.Clone()
		w.Header().Set("Retry-After", "3")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"code":"rate_limited"}`)) //nolint:errcheck
	}))
	defer hs.Close()
	c, err := remote.NewClient(hs.URL, remote.Options{ClientID: "router", AuthToken: "tok"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rep, err := c.Exchange(context.Background(), remote.Call{
		Method: http.MethodPost, Path: "/v1/targets/a/estimate",
		ContentType: wire.BinaryContentType, Body: []byte{1, 2, 3},
		ClientID: "alice",
		Header:   map[string]string{"X-Empty": "", wire.ExecuteTokenHeader: "tok-7"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != http.StatusTooManyRequests || rep.Header.Get("Retry-After") != "3" ||
		string(rep.Body) != `{"code":"rate_limited"}` {
		t.Errorf("reply %d %v %q", rep.Status, rep.Header, rep.Body)
	}
	if got.Get("Content-Type") != wire.BinaryContentType || got.Get(wire.ClientHeader) != "alice" ||
		got.Get("Authorization") != "Bearer tok" || got.Get(wire.ExecuteTokenHeader) != "tok-7" {
		t.Errorf("request headers %v", got)
	}
	for _, h := range []string{"Accept", "X-Empty"} {
		if _, ok := got[h]; ok {
			t.Errorf("empty %s was sent: %q", h, got.Get(h))
		}
	}
}
