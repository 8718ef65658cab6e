// Streamed-execute proxying. The router relays the protocol (open /
// chunk / status / delete) to the tenant's backend while keeping its
// own (token, seq) ledger in step with the execute journal:
//
//   - a chunk is journaled — with its Content-Type — only after the
//     backend acked it 202, under the same per-tenant lock as plain
//     executes, so journal order is apply order across both paths;
//   - a journaled (token, seq) that is resubmitted (the client retrying
//     a whole stream after a failover) is acked 202 without forwarding:
//     the failover replay already applied it;
//   - when a rebuilt backend answers unknown_execution for a stream the
//     router knows, the router re-opens the execution there and
//     re-forwards the chunk once — clients never observe the failover
//     beyond a Retry-After ride;
//   - a status/delete 404 for a known stream is answered as "done":
//     every journaled chunk is either applied or will be re-applied by
//     the next replay, which is the strongest promise the router can
//     keep without decoding bodies.
package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"pace/internal/httpserve"
	"pace/internal/remote"
	"pace/internal/wire"
)

// readyBackend re-checks placement for paths that already hold
// e.execMu: the entry must be ready on an up backend, else the caller's
// client rides a 503 through the rebuild.
func (rt *Router) readyBackend(w http.ResponseWriter, e *entry, id string) (*backend, bool) {
	rt.mu.Lock()
	b := e.backend
	ok := e.state == StateReady && b != nil && b.up.Load()
	rt.mu.Unlock()
	if !ok {
		rt.core.Shed(w, wire.CodeNotReady, "tenant "+id+" rebuilding")
		return nil, false
	}
	return b, true
}

// knownStream reports whether the router has seen token for e, and how
// many of its chunks are journaled. Callers must NOT hold e.execMu.
func (e *entry) knownStream(token string) (int, bool) {
	e.execMu.Lock()
	defer e.execMu.Unlock()
	seqs, ok := e.streams[token]
	return len(seqs), ok
}

// syntheticAck answers for the backend when the router already holds
// the truth (journaled chunk, replayed stream).
func (rt *Router) syntheticAck(w http.ResponseWriter, status int, token, state string, applied int) {
	httpserve.WriteJSON(w, status, wire.ExecutionResponse{
		V:       wire.Version,
		Token:   token,
		State:   state,
		Applied: int64(applied),
	})
}

// handleOpenExecution proxies a stream open and registers the token in
// the router's ledger. Opens are idempotent end to end, so a client
// retrying the whole stream re-opens harmlessly.
func (rt *Router) handleOpenExecution(w http.ResponseWriter, r *http.Request, id string) {
	e, client, ok := rt.resolveData(w, r, id)
	if !ok {
		return
	}
	body, ok := httpserve.ReadBody(w, r)
	if !ok {
		return
	}
	var req wire.OpenExecutionRequest
	if jerr := json.Unmarshal(body, &req); jerr != nil || !wire.ValidExecutionToken(req.Token) {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			"open body must carry a valid execution token")
		return
	}

	e.execMu.Lock()
	defer e.execMu.Unlock()
	b, ok := rt.readyBackend(w, e, id)
	if !ok {
		return
	}
	rep, ok := rt.proxy(w, r, b, id, remote.Call{Method: http.MethodPost, Path: "/v1/targets/" + id + "/executions",
		ContentType: wire.JSONContentType, Body: body, ClientID: client})
	if !ok {
		return
	}
	if rep.Status == http.StatusOK {
		if e.streams == nil {
			e.streams = map[string]map[int64]bool{}
		}
		if e.streams[req.Token] == nil {
			e.streams[req.Token] = map[int64]bool{}
		}
		rt.mStreamOpens.Inc()
	}
	rt.passthrough(w, rep)
}

// handleExecutionChunk proxies one chunk, deduping against the journal
// and journaling on ack — the streamed twin of handleData's execute
// arm.
func (rt *Router) handleExecutionChunk(w http.ResponseWriter, r *http.Request, id, token string) {
	e, client, ok := rt.resolveData(w, r, id)
	if !ok {
		return
	}
	seqRaw := r.Header.Get(wire.ChunkSeqHeader)
	seq, err := strconv.ParseInt(seqRaw, 10, 64)
	if err != nil || seq < 0 {
		httpserve.WriteError(w, http.StatusBadRequest, wire.CodeBadRequest,
			wire.ChunkSeqHeader+" must carry the chunk's non-negative sequence number")
		return
	}
	body, ok := httpserve.ReadBody(w, r)
	if !ok {
		return
	}
	call := relay(r, "/v1/targets/"+id+"/executions/"+token, body, client)
	call.Header = map[string]string{wire.ChunkSeqHeader: seqRaw}

	e.execMu.Lock()
	defer e.execMu.Unlock()
	if e.streams[token][seq] {
		// Journaled already: the chunk is applied on the current backend
		// (or will be, by the next replay). Ack without forwarding —
		// this is what makes whole-stream retries exactly-once.
		rt.mStreamDedup.Inc()
		rt.syntheticAck(w, http.StatusAccepted, token, wire.ExecutionRunning, len(e.streams[token]))
		return
	}
	b, ok := rt.readyBackend(w, e, id)
	if !ok {
		return
	}
	rep, ok := rt.proxy(w, r, b, id, call)
	if !ok {
		return
	}
	if _, known := e.streams[token]; known && rep.Status == http.StatusNotFound &&
		bytes.Contains(rep.Body, []byte(wire.CodeUnknownExecution)) &&
		rt.reopenExecution(r.Context(), b, id, token) {
		// The backend was rebuilt from the journal and lost its execution
		// registry. Re-opened there; forward once more.
		if rep, ok = rt.proxy(w, r, b, id, call); !ok {
			return
		}
	}
	if rep.Status == http.StatusAccepted {
		if e.streams == nil {
			e.streams = map[string]map[int64]bool{}
		}
		if e.streams[token] == nil {
			e.streams[token] = map[int64]bool{}
		}
		e.streams[token][seq] = true
		e.journal = append(e.journal, journalEntry{contentType: call.ContentType, body: body, stream: true})
		rt.mStreamFwd.Inc()
	}
	rt.passthrough(w, rep)
}

// reopenExecution re-registers a stream's token on a rebuilt backend.
func (rt *Router) reopenExecution(ctx context.Context, b *backend, id, token string) bool {
	body, err := json.Marshal(wire.OpenExecutionRequest{V: wire.Version, Token: token})
	if err != nil {
		return false
	}
	rep, err := b.client.Exchange(ctx, remote.Call{Method: http.MethodPost, Path: "/v1/targets/" + id + "/executions",
		ContentType: wire.JSONContentType, Body: body})
	return err == nil && rep.Status == http.StatusOK
}

// handleExecutionStatus proxies the completion poll. A backend 404 for
// a stream the router knows means the backend was rebuilt from the
// journal: every journaled chunk was replayed synchronously, so the
// stream is done from the client's point of view.
func (rt *Router) handleExecutionStatus(w http.ResponseWriter, r *http.Request, id, token string) {
	e, client, ok := rt.resolveData(w, r, id)
	if !ok {
		return
	}
	b, ok := rt.readyBackend(w, e, id)
	if !ok {
		return
	}
	rep, ok := rt.proxy(w, r, b, id, remote.Call{Method: http.MethodGet, Path: "/v1/targets/" + id + "/executions/" + token, ClientID: client})
	if !ok {
		return
	}
	if rep.Status == http.StatusNotFound && bytes.Contains(rep.Body, []byte(wire.CodeUnknownExecution)) {
		if n, known := e.knownStream(token); known {
			rt.syntheticAck(w, http.StatusOK, token, wire.ExecutionDone, n)
			return
		}
	}
	rt.passthrough(w, rep)
}

// handleExecutionDelete proxies a stream delete. The router's own
// (token, seq) ledger is deliberately kept: dropping it would let a
// later whole-stream retry re-forward journaled chunks and double-apply
// them after a failover. The ledger dies with the tenant.
func (rt *Router) handleExecutionDelete(w http.ResponseWriter, r *http.Request, id, token string) {
	e, client, ok := rt.resolveData(w, r, id)
	if !ok {
		return
	}
	b, ok := rt.readyBackend(w, e, id)
	if !ok {
		return
	}
	rep, ok := rt.proxy(w, r, b, id, remote.Call{Method: http.MethodDelete, Path: "/v1/targets/" + id + "/executions/" + token, ClientID: client})
	if !ok {
		return
	}
	if rep.Status == http.StatusNotFound && bytes.Contains(rep.Body, []byte(wire.CodeUnknownExecution)) {
		if n, known := e.knownStream(token); known {
			rt.syntheticAck(w, http.StatusOK, token, wire.ExecutionDone, n)
			return
		}
	}
	rt.passthrough(w, rep)
}
