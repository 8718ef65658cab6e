package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pace/internal/router"
	"pace/internal/wire"
)

// routerCall sends one JSON request carrying an optional spoofable client
// header and an optional bearer token, and decodes the error body of a
// non-2xx reply.
func routerCall(t *testing.T, method, url string, body any, client, token string) (*http.Response, wire.ErrorResponse) {
	t.Helper()
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(blob))
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
	defer resp.Body.Close()
	var er wire.ErrorResponse
	if resp.StatusCode >= 300 {
		json.NewDecoder(resp.Body).Decode(&er) //nolint:errcheck // asserted by the caller
	}
	return resp, er
}

func createReq(id string) wire.CreateTargetRequest {
	return wire.CreateTargetRequest{V: wire.Version, Target: wire.TargetSpec{
		ID: id, Dataset: "dmv", Model: "fcn", Seed: 1,
	}}
}

// TestRouterAuthTokensGateAndDeriveIdentity: a router with AuthTokens
// refuses unauthenticated calls with a pacerouter challenge, and the
// token-derived identity (not the spoofable client header) is what
// MaxPerOwner counts.
func TestRouterAuthTokensGateAndDeriveIdentity(t *testing.T) {
	f := newFleet(t, 1, router.Config{
		AuthTokens:  map[string]string{"s3cret-a": "alice", "s3cret-b": "bob"},
		MaxPerOwner: 1,
	})

	for name, token := range map[string]string{"no token": "", "unknown token": "wrong"} {
		resp, er := routerCall(t, http.MethodPost, f.url+"/v1/targets", createReq("x"), "alice", token)
		if resp.StatusCode != http.StatusUnauthorized || er.Code != wire.CodeUnauthorized {
			t.Errorf("%s: %d %q, want 401 %q", name, resp.StatusCode, er.Code, wire.CodeUnauthorized)
		}
		if got, want := resp.Header.Get("WWW-Authenticate"), `Bearer realm="pacerouter"`; got != want {
			t.Errorf("%s: WWW-Authenticate %q, want %q", name, got, want)
		}
	}
	if resp, er := routerCall(t, http.MethodPost, f.url+"/v1/targets/x/estimate", nil, "", ""); resp.StatusCode != http.StatusUnauthorized || er.Code != wire.CodeUnauthorized {
		t.Errorf("data path without token: %d %q, want 401", resp.StatusCode, er.Code)
	}

	if resp, er := routerCall(t, http.MethodPost, f.url+"/v1/targets", createReq("a1"), "", "s3cret-a"); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's first create: %d %q", resp.StatusCode, er.Code)
	}
	// Alice claims another name in the client header: her quota follows
	// her token all the same.
	resp, er := routerCall(t, http.MethodPost, f.url+"/v1/targets", createReq("a2"), "someone-else", "s3cret-a")
	if resp.StatusCode != http.StatusTooManyRequests || er.Code != wire.CodeQuotaExceeded {
		t.Fatalf("alice's spoofed second create: %d %q, want 429 %q", resp.StatusCode, er.Code, wire.CodeQuotaExceeded)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota refusal without Retry-After")
	}
	if resp, er := routerCall(t, http.MethodPost, f.url+"/v1/targets", createReq("b1"), "alice", "s3cret-b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's create: %d %q", resp.StatusCode, er.Code)
	}
}

// TestRouterShutdownAnswersDraining: once Shutdown has run, the
// router's handler refuses data, admin and health calls with 503
// draining instead of proxying them.
func TestRouterShutdownAnswersDraining(t *testing.T) {
	f := newFleet(t, 1, router.Config{})
	if resp, er := createTenant(t, f, "d", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d %q", resp.StatusCode, er.Code)
	}
	// The handler outlives the router's own listener, which Shutdown
	// closes; a second front keeps it reachable.
	hs := httptest.NewServer(f.rt.Handler())
	defer hs.Close()
	if err := f.rt.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	est := wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPost, "/v1/targets/d/estimate", est},
		{http.MethodPost, "/v1/targets/default/estimate", est},
		{http.MethodPost, "/v1/targets", createReq("late")},
		{http.MethodGet, "/v1/targets/d/healthz", nil},
	} {
		resp, er := routerCall(t, c.method, hs.URL+c.path, c.body, "alice", "")
		if resp.StatusCode != http.StatusServiceUnavailable || er.Code != wire.CodeDraining || er.Error != "router draining" {
			t.Errorf("%s %s after Shutdown: %d %q %q, want 503 %q \"router draining\"",
				c.method, c.path, resp.StatusCode, er.Code, er.Error, wire.CodeDraining)
		}
	}
	var hz wire.HealthzResponse
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || hz.Status != "draining" {
		t.Errorf("/healthz after Shutdown: %d %q, want 503 draining", resp.StatusCode, hz.Status)
	}
}
