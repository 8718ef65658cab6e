package router_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/router"
	"pace/internal/wire"
)

// TestBodyReadFailureBooksOneFailure: a proxied call whose reply body
// breaks off is one failure against the backend, not a success when the
// headers arrive and a failure when the read fails. Two such calls in a
// row reach a FailThreshold of 2 and mark the backend down; with a
// success booked in between they never would.
func TestBodyReadFailureBooksOneFailure(t *testing.T) {
	var probes atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz" && probes.Add(1) == 1:
			w.Write([]byte(`{"status":"ok"}`)) //nolint:errcheck
		case r.URL.Path == "/healthz", r.URL.Path == "/v1/targets" && r.Method == http.MethodGet:
			// Only the boot probe answers. The health loop's first probe
			// and the listing the router sends once the backend is up would
			// each book a success, which between the two broken estimates
			// resets the failure count. Held open, they end with their
			// probe timeout, after the assertions.
			<-r.Context().Done()
		case r.URL.Path == "/v1/targets":
			json.NewEncoder(w).Encode(wire.CreateTargetResponse{V: wire.Version, //nolint:errcheck
				Target: wire.TargetInfo{TargetSpec: wire.TargetSpec{ID: "t"}, State: "ready"}})
		default:
			// Promise a longer body than is sent, then cut the connection.
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\npartial") //nolint:errcheck
			buf.Flush()                                                              //nolint:errcheck
			conn.Close()
		}
	}))
	defer hs.Close()
	// One boot probe, then none: only the proxied calls are booked.
	rt, err := router.New(router.Config{Backends: []string{hs.URL}, FailThreshold: 2, HealthInterval: time.Hour,
		ProbeTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close() //nolint:errcheck
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{rt: rt, url: "http://" + addr, urls: []string{hs.URL}}
	if resp, _ := createTenant(t, f, "t", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		if _, code, _ := estimate(t, f, "t"); code != http.StatusServiceUnavailable {
			t.Fatalf("estimate %d over a broken body answered %d, want 503", i, code)
		}
	}
	if fs := fleetStatus(t, f); len(fs.Backends) != 1 || fs.Backends[0].Up {
		t.Fatalf("backend still up after two failed exchanges: %+v", fs.Backends)
	}
}
