package targetserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"pace/internal/targetserver"
	"pace/internal/wire"
)

// postRaw fires one data-path request with explicit codec headers.
func postRaw(t *testing.T, url, contentType, accept string, body []byte, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	req.Header.Set(wire.ClientHeader, "codec-test")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func estimateBlob(t *testing.T, c wire.Codec) []byte {
	t.Helper()
	blob, err := c.EncodeEstimateRequest(&wire.EstimateRequest{
		V: wire.Version, Queries: []wire.Query{openQuery()},
	})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCodecNegotiationMatrix drives all four request/response codec
// combinations through one server: every cell must answer the same
// bit-exact estimate, with the response Content-Type following Accept.
func TestCodecNegotiationMatrix(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})
	want := wire.FromFloat(0.25 * 1000) // gateTarget: lo bound × 1000

	cases := []struct {
		name, ct, accept, wantRespCT string
	}{
		{"json→json", wire.JSONContentType, "", wire.JSONContentType},
		{"json→binary", wire.JSONContentType, wire.BinaryContentType, wire.BinaryContentType},
		{"binary→json", wire.BinaryContentType, wire.JSONContentType, wire.JSONContentType},
		{"binary→binary", wire.BinaryContentType, wire.BinaryContentType, wire.BinaryContentType},
		{"absent content type means json", "", "", wire.JSONContentType},
	}
	for _, tc := range cases {
		reqC, _ := wire.CodecForContentType(tc.ct)
		resp := postRaw(t, hs.URL+"/v1/targets/default/estimate", tc.ct, tc.accept, estimateBlob(t, reqC), nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, resp.StatusCode, raw)
		}
		if got := resp.Header.Get("Content-Type"); got != tc.wantRespCT {
			t.Fatalf("%s: response Content-Type %q, want %q", tc.name, got, tc.wantRespCT)
		}
		respC, _ := wire.CodecForContentType(tc.wantRespCT)
		er, err := respC.DecodeEstimateResponse(raw)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if len(er.Estimates) != 1 || er.Estimates[0] != want {
			t.Fatalf("%s: estimates %v, want [%v] bit-exact", tc.name, er.Estimates, want)
		}
	}
}

// TestUnsupportedCodecAnswers415 pins the negotiation failure modes:
// unknown Content-Types and administratively disabled codecs answer a
// machine-readable 415; a binary Accept against a JSON-only server
// falls back to JSON instead of failing.
func TestUnsupportedCodecAnswers415(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})
	resp := postRaw(t, hs.URL+"/v1/targets/default/estimate", "text/plain", "", []byte("hi"), nil)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusUnsupportedMediaType || !bytes.Contains(raw, []byte(wire.CodeUnsupportedMedia)) {
		t.Fatalf("text/plain: status %d body %s, want 415 %s", resp.StatusCode, raw, wire.CodeUnsupportedMedia)
	}

	_, hsJSON := newTestServer(t, &gateTarget{}, targetserver.Config{Codecs: []string{"json"}})
	resp = postRaw(t, hsJSON.URL+"/v1/targets/default/estimate",
		wire.BinaryContentType, wire.BinaryContentType, estimateBlob(t, wire.Binary), nil)
	raw = readAll(t, resp)
	if resp.StatusCode != http.StatusUnsupportedMediaType || !bytes.Contains(raw, []byte(wire.CodeUnsupportedMedia)) {
		t.Fatalf("binary at json-only server: status %d body %s", resp.StatusCode, raw)
	}

	// Accept: binary at a JSON-only server is not an error — the server
	// just answers JSON.
	resp = postRaw(t, hsJSON.URL+"/v1/targets/default/estimate",
		wire.JSONContentType, wire.BinaryContentType, estimateBlob(t, wire.JSON), nil)
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != wire.JSONContentType {
		t.Fatalf("Accept-binary fallback: status %d ct %q, want 200 json", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestBadBinaryFrameAnswers400 maps parser rejections onto the wire:
// code bad_frame, never a 5xx, never a hang.
func TestBadBinaryFrameAnswers400(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})
	for name, body := range map[string][]byte{
		"garbage":       append([]byte{'P', 'W', 2}, "garbage-not-a-frame"...),
		"empty":         {},
		"truncated":     estimateBlob(t, wire.Binary)[:9],
		"wrong version": append([]byte{'P', 'W', 99}, estimateBlob(t, wire.Binary)[3:]...),
	} {
		resp := postRaw(t, hs.URL+"/v1/targets/default/estimate",
			wire.BinaryContentType, "", body, nil)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", name, resp.StatusCode, raw)
		}
	}
	resp := postRaw(t, hs.URL+"/v1/targets/default/estimate",
		wire.BinaryContentType, "", append([]byte{'P', 'W', 2}, "garbage-not-a-frame"...), nil)
	raw := readAll(t, resp)
	if !bytes.Contains(raw, []byte(wire.CodeBadFrame)) {
		t.Errorf("bad frame body %s, want code %s", raw, wire.CodeBadFrame)
	}
}

// executeRaw posts one binary execute of a single query with the given
// card, under token ("" sends no token header).
func executeRaw(t *testing.T, base, token string, card float64) (int, []byte) {
	t.Helper()
	blob, err := wire.Binary.EncodeExecuteRequest(&wire.ExecuteRequest{
		V: wire.Version, Queries: []wire.Query{openQuery()}, Cards: wire.FromFloats([]float64{card}),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := postRaw(t, base+"/v1/targets/default/execute", wire.BinaryContentType, "", blob,
		map[string]string{wire.ExecuteTokenHeader: token})
	return resp.StatusCode, readAll(t, resp)
}

// TestExecuteTokenEndToEnd walks idempotent execute over HTTP with the
// binary codec: a resent token is acked without a retrain, a new token
// applies, and executes without a token apply every time — the model
// sees each applied workload once, in order.
func TestExecuteTokenEndToEnd(t *testing.T) {
	bb := &gateTarget{}
	_, hs := newTestServer(t, bb, targetserver.Config{})
	for _, step := range []struct {
		token string
		card  float64
	}{{"e2e-1", 11}, {"e2e-2", 22}, {"e2e-1", 11}, {"e2e-3", 33}, {"", 44}, {"", 44}} {
		if status, raw := executeRaw(t, hs.URL, step.token, step.card); status != http.StatusOK {
			t.Fatalf("execute %q: status %d: %s", step.token, status, raw)
		}
	}
	bb.mu.Lock()
	got := append([][]float64(nil), bb.executed...)
	bb.mu.Unlock()
	want := []float64{11, 22, 33, 44, 44}
	if len(got) != len(want) {
		t.Fatalf("model saw %v, want %v", got, want)
	}
	for i, w := range want {
		if got[i][0] != w {
			t.Fatalf("model saw %v, want %v", got, want)
		}
	}
}

// TestExecuteTokenRejections: a malformed execute token is the client's
// fault — 400 bad_request, and nothing applied.
func TestExecuteTokenRejections(t *testing.T) {
	bb := &gateTarget{}
	_, hs := newTestServer(t, bb, targetserver.Config{})
	for _, bad := range []string{"has space", "slash/y", strings.Repeat("x", wire.MaxExecutionToken+1)} {
		status, raw := executeRaw(t, hs.URL, bad, 1)
		var er wire.ErrorResponse
		json.Unmarshal(raw, &er) //nolint:errcheck // checked through er.Code
		if status != http.StatusBadRequest || er.Code != wire.CodeBadRequest {
			t.Errorf("token %q: status %d code %q, want 400 %s", bad, status, er.Code, wire.CodeBadRequest)
		}
	}
	bb.mu.Lock()
	defer bb.mu.Unlock()
	if len(bb.executed) != 0 {
		t.Errorf("rejected executes reached the model: %v", bb.executed)
	}
}
