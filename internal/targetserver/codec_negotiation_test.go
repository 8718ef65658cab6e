package targetserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestLegacyAliasesCarryDeprecation pins satellite 2: the un-tenanted
// v1 endpoints keep working bit-for-bit but announce their sunset; the
// routed successor does not.
func TestLegacyAliasesCarryDeprecation(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})
	for _, path := range []string{"/v1/estimate", "/v1/execute"} {
		var body any
		if path == "/v1/estimate" {
			body = wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}
		} else {
			body = wire.ExecuteRequest{V: wire.Version,
				Queries: []wire.Query{openQuery()}, Cards: wire.FromFloats([]float64{10})}
		}
		resp := postJSON(t, hs.URL+path, body, "codec-test")
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if resp.Header.Get("Deprecation") != "true" {
			t.Errorf("%s: no Deprecation header", path)
		}
		link := resp.Header.Get("Link")
		if !strings.Contains(link, "/v1/targets/default") || !strings.Contains(link, "successor-version") {
			t.Errorf("%s: Link header %q does not name the successor route", path, link)
		}
	}
	resp := postJSON(t, hs.URL+"/v1/targets/default/estimate",
		wire.EstimateRequest{V: wire.Version, Queries: []wire.Query{openQuery()}}, "codec-test")
	readAll(t, resp)
	if resp.Header.Get("Deprecation") != "" {
		t.Error("routed endpoint carries a Deprecation header; only the aliases are deprecated")
	}
}

func openExecution(t *testing.T, base, token string) *http.Response {
	t.Helper()
	blob, err := json.Marshal(wire.OpenExecutionRequest{V: wire.Version, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, base+"/v1/targets/default/executions", wire.JSONContentType, "", blob, nil)
}

func pollExecution(t *testing.T, base, token string) wire.ExecutionResponse {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/targets/default/executions/" + token)
		if err != nil {
			t.Fatal(err)
		}
		var er wire.ExecutionResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if er.State != wire.ExecutionRunning || time.Now().After(deadline) {
			return er
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestStreamedExecuteEndToEnd walks the whole protocol over HTTP with
// the binary codec: open, chunks (one resubmitted), poll to done,
// delete — and checks the model saw each chunk exactly once, in order.
func TestStreamedExecuteEndToEnd(t *testing.T) {
	bb := &gateTarget{}
	_, hs := newTestServer(t, bb, targetserver.Config{})
	const token = "e2e-stream-1"

	if resp := openExecution(t, hs.URL, token); resp.StatusCode != http.StatusOK {
		t.Fatalf("open: status %d: %s", resp.StatusCode, readAll(t, resp))
	} else {
		readAll(t, resp)
	}

	chunk := func(seq int64, card float64) *http.Response {
		blob, err := wire.Binary.EncodeExecuteRequest(&wire.ExecuteRequest{
			V: wire.Version, Queries: []wire.Query{openQuery()}, Cards: wire.FromFloats([]float64{card}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return postRaw(t, hs.URL+"/v1/targets/default/executions/"+token,
			wire.BinaryContentType, "", blob, map[string]string{
				wire.ChunkSeqHeader: strconv.FormatInt(seq, 10),
			})
	}
	for seq, card := range []float64{11, 22, 33} {
		resp := chunk(int64(seq), card)
		raw := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("chunk %d: status %d: %s", seq, resp.StatusCode, raw)
		}
	}
	// Resubmit chunk 1 (a retry after a lost ack): 202 again, no re-apply.
	resp := chunk(1, 22)
	readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("duplicate chunk: status %d", resp.StatusCode)
	}

	er := pollExecution(t, hs.URL, token)
	if er.State != wire.ExecutionDone || er.Applied != 3 || er.Queries != 3 {
		t.Fatalf("final status %+v, want done with 3 applied chunks", er)
	}
	bb.mu.Lock()
	got := append([][]float64(nil), bb.executed...)
	bb.mu.Unlock()
	if len(got) != 3 || got[0][0] != 11 || got[1][0] != 22 || got[2][0] != 33 {
		t.Fatalf("model saw %v, want the three chunks once each, in order", got)
	}

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v1/targets/default/executions/"+token, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, dresp)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	gresp, err := http.Get(hs.URL + "/v1/targets/default/executions/" + token)
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, gresp)
	if gresp.StatusCode != http.StatusNotFound || !bytes.Contains(raw, []byte(wire.CodeUnknownExecution)) {
		t.Fatalf("status after delete: %d %s, want 404 %s", gresp.StatusCode, raw, wire.CodeUnknownExecution)
	}
}

// TestStreamedExecuteRejections pins the protocol's edges: chunks for
// unknown tokens, missing/bad sequence headers, invalid tokens on open.
func TestStreamedExecuteRejections(t *testing.T) {
	_, hs := newTestServer(t, &gateTarget{}, targetserver.Config{})
	blob, err := wire.JSON.EncodeExecuteRequest(&wire.ExecuteRequest{
		V: wire.Version, Queries: []wire.Query{openQuery()}, Cards: wire.FromFloats([]float64{1}),
	})
	if err != nil {
		t.Fatal(err)
	}

	resp := postRaw(t, hs.URL+"/v1/targets/default/executions/never-opened",
		wire.JSONContentType, "", blob, map[string]string{wire.ChunkSeqHeader: "0"})
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(raw, []byte(wire.CodeUnknownExecution)) {
		t.Fatalf("unknown token: %d %s, want 404 %s", resp.StatusCode, raw, wire.CodeUnknownExecution)
	}

	if oresp := openExecution(t, hs.URL, "tok-ok"); oresp.StatusCode != http.StatusOK {
		t.Fatalf("open: %d", oresp.StatusCode)
	} else {
		readAll(t, oresp)
	}
	for name, seq := range map[string]string{"missing": "", "garbage": "abc", "negative": "-1"} {
		hdr := map[string]string{}
		if seq != "" {
			hdr[wire.ChunkSeqHeader] = seq
		}
		resp := postRaw(t, hs.URL+"/v1/targets/default/executions/tok-ok",
			wire.JSONContentType, "", blob, hdr)
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s seq header: status %d, want 400", name, resp.StatusCode)
		}
	}

	for _, bad := range []string{"", "has space", strings.Repeat("x", wire.MaxExecutionToken+1)} {
		resp := openExecution(t, hs.URL, bad)
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("open with token %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}
