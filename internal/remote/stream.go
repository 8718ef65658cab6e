package remote

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/wire"
)

// streamToken derives the execution token from the workload's content:
// fnv64a over every query key and card bit pattern. A whole-stream
// retry (the resilience layer re-running ExecuteWorkload after a
// failover) therefore reuses the token, and the server's (token, seq)
// dedupe keeps every chunk exactly-once.
func streamToken(qs []*query.Query, cards []float64) string {
	h := fnv.New64a()
	var lane [8]byte
	for i, q := range qs {
		io.WriteString(h, q.Key()) //nolint:errcheck // fnv never fails
		h.Write([]byte{0})         //nolint:errcheck
		binary.LittleEndian.PutUint64(lane[:], math.Float64bits(cards[i]))
		h.Write(lane[:]) //nolint:errcheck
	}
	return fmt.Sprintf("x%016x-n%d", h.Sum64(), len(qs))
}

// executeStream runs one workload through the streamed-execute
// protocol:
//
//  1. open the execution (idempotent per token),
//  2. upload chunks in sequence — each 202 means "enqueued", so chunk
//     N+1 uploads while chunk N retrains,
//  3. poll the status endpoint until nothing is pending,
//  4. best-effort delete of the server's dedupe state.
//
// Shed replies (429/503 + Retry-After) on any step are flow control,
// not failure: the same chunk or poll is re-sent after the server's
// hint, bounded by the caller's context plus a local budget. Transport
// failures return to the resilience layer as usual — its whole-stream
// retry is safe because the token and every (token, seq) pair dedupe.
func (t *RemoteTarget) executeStream(ctx context.Context, qs []*query.Query, cards []float64) error {
	token := streamToken(qs, cards)
	path := t.streamPrefix() + "/executions/" + url.PathEscape(token)

	ctx, ssp := obs.StartSpan(ctx, "stream_execute", obs.Int("queries", len(qs)))
	defer ssp.End()

	if err := t.openExecution(ctx, token); err != nil {
		return err
	}

	chunk := t.opts.StreamChunk
	for lo, seq := 0, int64(0); lo < len(qs); lo, seq = lo+chunk, seq+1 {
		hi := lo + chunk
		if hi > len(qs) {
			hi = len(qs)
		}
		req := wire.ExecuteRequest{
			V:       wire.Version,
			Queries: wire.EncodeQueries(qs[lo:hi]),
			Cards:   wire.FromFloats(cards[lo:hi]),
		}
		if err := t.submitChunk(ctx, token, seq, &req); err != nil {
			return err
		}
		t.queries.Add(int64(hi - lo))
	}

	actx, asp := obs.StartSpan(ctx, "exec_await")
	err := t.awaitExecution(actx, path, token)
	asp.End()
	if err != nil {
		return err
	}

	// The stream is applied; the dedupe state is now garbage. Deleting
	// it is purely an optimization (the registry LRU-evicts), so a
	// failure here must not fail the workload.
	dctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	t.controlJSON(dctx, http.MethodDelete, path, nil, http.StatusOK) //nolint:errcheck
	return nil
}

// streamPrefix routes streamed-execute calls. The executions surface
// exists only under /v1/targets/{id} — the legacy unrouted surface is
// deprecated and does not grow new endpoints — so a target riding the
// legacy prefix streams at the host's default tenant instead.
func (t *RemoteTarget) streamPrefix() string {
	if t.prefix == "/v1" {
		return "/v1/targets/default"
	}
	return t.prefix
}

// openExecution registers the token, riding shed replies.
func (t *RemoteTarget) openExecution(ctx context.Context, token string) error {
	ctx, sp := obs.StartSpan(ctx, "rpc_exec_open")
	defer sp.End()
	deadline := time.Now().Add(2 * t.opts.RequestTimeout)
	for {
		_, err := t.controlJSON(ctx, http.MethodPost, t.streamPrefix()+"/executions",
			wire.OpenExecutionRequest{V: wire.Version, Token: token}, http.StatusOK)
		if err == nil {
			return nil
		}
		if werr := t.rideOverload(ctx, err, deadline); werr != nil {
			return werr
		}
	}
}

// submitChunk uploads one chunk until the server acks it. Three
// outcomes loop instead of failing: a shed (wait out the hint and
// resubmit the same seq — idempotent), a 415 (sticky JSON downgrade),
// and unknown_execution (the backend lost the registry entry, e.g. a
// failover landed the stream on a freshly re-provisioned host — re-open
// and resubmit).
func (t *RemoteTarget) submitChunk(ctx context.Context, token string, seq int64, req *wire.ExecuteRequest) error {
	ctx, sp := obs.StartSpan(ctx, "rpc_exec_chunk", obs.Int64("seq", seq))
	defer sp.End()
	path := t.streamPrefix() + "/executions/" + url.PathEscape(token)
	seqRaw := strconv.FormatInt(seq, 10)
	deadline := time.Now().Add(2 * t.opts.RequestTimeout)
	for {
		c := t.wireCodec()
		payload, err := c.EncodeExecuteRequest(req)
		if err != nil {
			return fmt.Errorf("remote: encode: %w", err)
		}
		raw, _, err := t.roundTrip(ctx, http.MethodPost, path, c.ContentType(), seqRaw, payload, http.StatusAccepted)
		switch {
		case err == nil:
			ack, derr := decodeExecution(raw)
			if derr != nil {
				t.unavailableCount.Add(1)
				return derr
			}
			if ack.State == wire.ExecutionFailed {
				return executionFailed(token, ack.Error)
			}
			return nil
		case errors.Is(err, errUnsupportedCodec) && c.Name() != "json":
			t.downgraded.Store(true)
		case errors.Is(err, errUnknownExecution):
			if oerr := t.openExecution(ctx, token); oerr != nil {
				return oerr
			}
		default:
			if werr := t.rideOverload(ctx, err, deadline); werr != nil {
				return werr
			}
		}
	}
}

// awaitExecution polls the status endpoint until the stream is applied.
// Backoff doubles 5ms → 250ms. A 404 here means the registry entry was
// LRU-evicted, which only happens once nothing is pending — treated as
// done.
func (t *RemoteTarget) awaitExecution(ctx context.Context, path, token string) error {
	backoff := 5 * time.Millisecond
	deadline := time.Now().Add(2 * t.opts.RequestTimeout)
	for {
		st, err := t.controlJSON(ctx, http.MethodGet, path, nil, http.StatusOK)
		switch {
		case err == nil:
			switch st.State {
			case wire.ExecutionFailed:
				return executionFailed(token, st.Error)
			case wire.ExecutionDone:
				return nil
			}
			deadline = time.Now().Add(2 * t.opts.RequestTimeout) // progress observed
		case errors.Is(err, errUnknownExecution):
			return nil
		default:
			if werr := t.rideOverload(ctx, err, deadline); werr != nil {
				return werr
			}
			continue // rideOverload already slept
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return ctx.Err()
		}
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// rideOverload sleeps out a shed reply's Retry-After hint and reports
// nil (caller loops); any other error — or an exhausted budget — is
// returned for the resilience layer.
func (t *RemoteTarget) rideOverload(ctx context.Context, err error, deadline time.Time) error {
	if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
		return err
	}
	wait := 10 * time.Millisecond
	var oe *OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		wait = oe.RetryAfter
	}
	select {
	case <-time.After(wait):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// executionFailed maps a server-side stream failure onto the permanent
// error class: chunks may be partially applied, so a blind retry cannot
// repair it — the campaign surfaces the failure instead.
func executionFailed(token, msg string) error {
	return fmt.Errorf("%w: streamed execute %s failed on the server: %s", ce.ErrInvalidQuery, token, msg)
}

// controlJSON runs one streamed-execute control exchange (open, status
// poll, delete) — always JSON, like every other control surface.
func (t *RemoteTarget) controlJSON(ctx context.Context, method, path string, body any, wantStatus int) (*wire.ExecutionResponse, error) {
	var payload []byte
	contentType := ""
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, fmt.Errorf("remote: encode: %w", err)
		}
		contentType = wire.JSONContentType
	}
	raw, _, err := t.roundTrip(ctx, method, path, contentType, "", payload, wantStatus)
	if err != nil {
		return nil, err
	}
	return decodeExecution(raw)
}

func decodeExecution(raw []byte) (*wire.ExecutionResponse, error) {
	var resp wire.ExecutionResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("%w: malformed execution response: %v", ErrUnavailable, err)
	}
	return &resp, nil
}
