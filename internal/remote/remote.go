// Package remote reaches a paced estimator service (internal/targetserver)
// over HTTP, implementing ce.Target so the whole attack pipeline —
// speculation probes, surrogate imitation, poison execution — runs
// against a genuinely out-of-process deployment.
//
// Design points:
//
//   - RemoteTarget performs NO internal retries. It classifies failures
//     (4xx → ce.ErrInvalidQuery, permanent; 429/5xx/network → transient)
//     and lets the pipeline's one retry layer (internal/resilience)
//     decide — so obs retry counters count each logical retry exactly
//     once, and a fault injector wrapped around the target composes
//     without double accounting.
//   - With Options.CoalesceWindow set, concurrent EstimateContext
//     callers coalesce by Nagle's rule, with no timer: a call goes out
//     at once when none of its target's estimate requests is in flight
//     or the queue fills Options.MaxBatch, and otherwise queues for the
//     request sent when the last in-flight one completes.
//   - An ExecuteWorkload call is one POST and one retrain on the
//     server, never split. It carries an X-Pace-Execute-Token: fresh
//     per logical call, reused only when the same workload is sent
//     again right after a transient failure — the resilience layer's
//     retry — so a retry after a lost ack applies nothing twice while
//     a deliberate repeat applies again.
//   - Connections pool through one http.Transport; per-call deadlines
//     map the caller's context onto the exchange, with
//     Options.RequestTimeout as the backstop when the context carries
//     none.
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
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/wire"
)

// ErrOverloaded marks a 429 — the server shed the call (admission queue
// full or client over its rate limit). Transient: back off and retry.
var ErrOverloaded = errors.New("remote: target overloaded")

// ErrUnavailable marks a 5xx or a transport-level failure (connection
// refused, reset, timeout). Transient: the resilience layer retries and
// the breaker counts it toward opening.
var ErrUnavailable = errors.New("remote: target unavailable")

// OverloadError is the concrete error behind every shed reply: a 429,
// or a 503 that carries a Retry-After header (a router holding clients
// off while it rebuilds a tenant on a surviving backend). It matches
// errors.Is(err, ErrOverloaded) so existing classification keeps
// working, and exposes the server's Retry-After hint so the resilience
// layer can wait exactly as long as the server asked instead of blind
// exponential backoff.
type OverloadError struct {
	// Status is the HTTP status that carried the shed (429 or 503).
	Status int
	// RetryAfter is the server's parsed Retry-After hint; 0 when the
	// header was absent or unparseable.
	RetryAfter time.Duration
	// Msg is the server's code+message for logs.
	Msg string
}

func (e *OverloadError) Error() string {
	s := fmt.Sprintf("%v: %s", ErrOverloaded, e.Msg)
	if e.RetryAfter > 0 {
		s += fmt.Sprintf(" (retry after %s)", e.RetryAfter)
	}
	return s
}

// Is makes errors.Is(err, ErrOverloaded) true for OverloadError values.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// RetryAfterHint reports the server's requested backoff. The resilience
// layer discovers it structurally (errors.As against an interface), so
// it needs no import of this package.
func (e *OverloadError) RetryAfterHint() time.Duration { return e.RetryAfter }

// parseRetryAfter parses a Retry-After header in its delta-seconds form
// (the only form paced and pacerouter emit — see wire.RetryAfter).
// HTTP-date forms and garbage yield 0 (no hint).
func parseRetryAfter(h string) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Options tunes a RemoteTarget. The zero value works.
type Options struct {
	// MaxBatch caps queries per wire request (default 64, the server's
	// default micro-batch).
	MaxBatch int
	// CoalesceWindow, when positive, turns on coalescing by Nagle's
	// rule (see the package doc); the duration itself is not read. Zero
	// (the default) or less disables coalescing: every call is its own
	// request, which the load generator relies on for per-request
	// latency.
	CoalesceWindow time.Duration
	// RequestTimeout bounds one HTTP exchange when the caller's context
	// has no earlier deadline (default 30s).
	RequestTimeout time.Duration
	// ClientID is sent as X-Pace-Client for per-client rate limiting
	// (default "host/pid"). Ignored by servers running with auth tokens —
	// there the identity is derived from AuthToken.
	ClientID string
	// Tenant routes calls at a multi-tenant host:
	// /v1/targets/<tenant>/estimate|execute ("" = the "default"
	// tenant). Ignored when the base URL itself already carries a
	// /v1/targets/{id} route.
	Tenant string
	// AuthToken, when set, is sent as "Authorization: Bearer <token>" —
	// required by servers running with -auth-tokens.
	AuthToken string
	// Codec picks the data-path wire codec: "binary" (default) or
	// "json". Control-plane and admin calls always speak JSON. If the
	// server rejects the binary codec (415 unsupported_media), the
	// client downgrades to JSON once and sticks there.
	Codec string
	// Client overrides the pooled HTTP client, e.g. to cap connections
	// or to wrap the transport (pacerouter books backend health in its
	// wrapper).
	Client *http.Client
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxBatch > wire.MaxBatch {
		o.MaxBatch = wire.MaxBatch
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.ClientID == "" {
		host, _ := os.Hostname()
		o.ClientID = fmt.Sprintf("%s/%d", host, os.Getpid())
	}
	if o.Codec == "" {
		o.Codec = "binary"
	}
	return o
}

// Stats counts a RemoteTarget's wire traffic.
type Stats struct {
	// Requests is the number of HTTP exchanges sent.
	Requests int64
	// Queries is the number of queries carried across all exchanges.
	Queries int64
	// Coalesced counts estimate calls that queued and rode a request
	// another caller sent.
	Coalesced int64
	// Overloaded, Invalid, Unavailable count classified failures.
	Overloaded, Invalid, Unavailable int64
	// BytesOut and BytesIn count request/response body bytes on the
	// wire (headers excluded) — the numbers behind the codec bandwidth
	// comparison in BENCH_remote.json.
	BytesOut, BytesIn int64
	// Codec names the data codec currently in effect ("binary" or
	// "json" — the latter either by configuration or after a sticky 415
	// downgrade).
	Codec string
}

// RemoteTarget implements ce.Target over the paced wire protocol.
type RemoteTarget struct {
	c      *Client
	prefix string // "/v1/targets/<tenant>", or "" when the base URL routes
	opts   Options

	// retryMu guards the last execute's transient failure: the content
	// sum and token of a call a retry must resend under the same token.
	// retryToken is "" once any execute succeeds or fails permanently.
	retryMu    sync.Mutex
	retrySum   uint64
	retryToken string

	codec      wire.Codec  // configured data codec
	downgraded atomic.Bool // sticky JSON fallback after a 415

	mu       sync.Mutex
	pending  []*pendingEst // queued calls, never more than MaxBatch
	inFlight int           // estimate requests sent and not yet complete

	requests, queries, coalesced          atomic.Int64
	overloaded, invalid, unavailableCount atomic.Int64
	bytesOut, bytesIn                     atomic.Int64
}

// wireCodec is the data codec currently in effect: the configured one,
// or JSON after a sticky 415 downgrade.
func (t *RemoteTarget) wireCodec() wire.Codec {
	if t.downgraded.Load() {
		return wire.JSON
	}
	return t.codec
}

var _ ce.Target = (*RemoteTarget)(nil)

type pendingEst struct {
	ctx context.Context // first caller's context; carries telemetry/trace
	q   *query.Query
	res chan pendingRes // buffered(1)
}

type pendingRes struct {
	est float64
	err error
}

// Close sends the queued estimate calls, without waiting for the
// requests in flight, and releases pooled connections.
func (t *RemoteTarget) Close() {
	t.mu.Lock()
	batch := t.takeBatchLocked()
	t.mu.Unlock()
	if len(batch) > 0 {
		go t.sendBatch(batch)
	}
	t.c.Close()
}

// Stats snapshots the wire-traffic counters.
func (t *RemoteTarget) Stats() Stats {
	return Stats{
		Requests:    t.requests.Load(),
		Queries:     t.queries.Load(),
		Coalesced:   t.coalesced.Load(),
		Overloaded:  t.overloaded.Load(),
		Invalid:     t.invalid.Load(),
		Unavailable: t.unavailableCount.Load(),
		BytesOut:    t.bytesOut.Load(),
		BytesIn:     t.bytesIn.Load(),
		Codec:       t.wireCodec().Name(),
	}
}

// EstimateContext implements ce.Target: the estimate travels bit-exactly
// (wire.B64), so a remote estimate equals the in-process one.
func (t *RemoteTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	if t.opts.CoalesceWindow <= 0 {
		ests, err := t.estimateBatch(ctx, []*query.Query{q})
		if err != nil {
			return 0, err
		}
		return ests[0], nil
	}

	p := &pendingEst{ctx: ctx, q: q, res: make(chan pendingRes, 1)}
	t.mu.Lock()
	t.pending = append(t.pending, p)
	if t.inFlight < maxInFlight || len(t.pending) >= t.opts.MaxBatch {
		batch := t.takeBatchLocked()
		t.mu.Unlock()
		t.sendBatch(batch)
	} else {
		t.coalesced.Add(1)
		t.mu.Unlock()
	}
	select {
	case r := <-p.res:
		return r.est, r.err
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// maxInFlight caps a coalescing target's estimate requests in flight;
// full batches go regardless but count toward it. A cap of 2 cut
// perfbench's serve-read rate by about a quarter.
const maxInFlight = 1

// takeBatchLocked books the queued calls as one request in flight and
// returns them; nil when none is queued.
func (t *RemoteTarget) takeBatchLocked() []*pendingEst {
	batch := t.pending
	if len(batch) > 0 {
		t.pending = nil
		t.inFlight++
	}
	return batch
}

// sendBatch issues one wire request for the batch and fans results back
// out. The exchange runs under the batch's own timeout — individual
// callers' contexts only govern how long they wait, not the request
// (other callers in the batch still want the answer).
func (t *RemoteTarget) sendBatch(batch []*pendingEst) {
	// Keep the first caller's telemetry and trace context (values only —
	// WithoutCancel detaches its lifetime so one caller bailing cannot
	// kill the batch the others are still waiting on).
	ctx, cancel := context.WithTimeout(context.WithoutCancel(batch[0].ctx), t.opts.RequestTimeout)
	defer cancel()
	qs := make([]*query.Query, len(batch))
	for i, p := range batch {
		qs[i] = p.q
	}
	ests, err := t.estimateBatch(ctx, qs)
	for i, p := range batch {
		if err != nil {
			p.res <- pendingRes{err: err}
		} else {
			p.res <- pendingRes{est: ests[i]}
		}
	}
	// Only the last request in flight hands the queue on, to its own
	// goroutine so that this request's sender returns at once.
	t.mu.Lock()
	t.inFlight--
	var next []*pendingEst
	if t.inFlight == 0 {
		next = t.takeBatchLocked()
	}
	t.mu.Unlock()
	if len(next) > 0 {
		go t.sendBatch(next)
	}
}

// ExecuteWorkload implements ce.Target: the feedback channel that makes
// the remote estimator incrementally retrain. Cards travel bit-exactly.
// The workload is one request and one retrain on the server, as
// in-process; more than wire.MaxBatch queries fail before anything is
// sent. The request's token is this call's own, or the failed call's
// when this call resends the same workload right after a transient
// failure (see executeToken).
func (t *RemoteTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	if len(qs) != len(cards) {
		return fmt.Errorf("%w: %d queries with %d cards", ce.ErrInvalidQuery, len(qs), len(cards))
	}
	if len(qs) == 0 {
		return nil
	}
	if len(qs) > wire.MaxBatch {
		return fmt.Errorf("%w: %d queries exceed the %d-query wire cap of one execute",
			ce.ErrInvalidQuery, len(qs), wire.MaxBatch)
	}
	sum := workloadSum(qs, cards)
	token := t.executeToken(sum)
	req := wire.ExecuteRequest{
		V:       wire.Version,
		Queries: wire.EncodeQueries(qs),
		Cards:   wire.FromFloats(cards),
	}
	ctx, sp := obs.StartSpan(ctx, "rpc_execute", obs.Int("queries", len(qs)))
	err := t.postData(ctx, t.prefix+"/execute", token,
		func(c wire.Codec) ([]byte, error) { return c.EncodeExecuteRequest(&req) },
		func(c wire.Codec, raw []byte) error {
			_, err := c.DecodeExecuteResponse(raw)
			return err
		})
	sp.End()
	t.settleExecute(sum, token, err)
	if err != nil {
		return err
	}
	t.queries.Add(int64(len(qs)))
	return nil
}

// workloadSum is fnv64a over every query key and card bit pattern: two
// calls carry the same workload iff (barring collisions) their sums
// match.
func workloadSum(qs []*query.Query, cards []float64) uint64 {
	h := fnv.New64a()
	var lane [8]byte
	for i, q := range qs {
		io.WriteString(h, q.Key()) //nolint:errcheck // fnv never fails
		h.Write([]byte{0})         //nolint:errcheck
		binary.LittleEndian.PutUint64(lane[:], math.Float64bits(cards[i]))
		h.Write(lane[:]) //nolint:errcheck
	}
	return h.Sum64()
}

// executeToken picks the token of an execute whose workload sums to
// sum. A call that resends the workload of the target's last execute,
// which failed transiently, is that call's retry and reuses its token:
// the server may have applied it and lost only the ack. Every other
// call is a new logical execute and gets a fresh token, so a deliberate
// repeat after a success applies again.
func (t *RemoteTarget) executeToken(sum uint64) string {
	t.retryMu.Lock()
	defer t.retryMu.Unlock()
	if t.retryToken != "" && t.retrySum == sum {
		return t.retryToken
	}
	return t.c.freshToken()
}

// settleExecute records an execute's outcome for executeToken: only an
// ErrUnavailable or ErrOverloaded failure, which the resilience layer
// retries, keeps the token for the retry.
func (t *RemoteTarget) settleExecute(sum uint64, token string, err error) {
	t.retryMu.Lock()
	defer t.retryMu.Unlock()
	if errors.Is(err, ErrUnavailable) || errors.Is(err, ErrOverloaded) {
		t.retrySum, t.retryToken = sum, token
	} else {
		t.retryToken = ""
	}
}

func (t *RemoteTarget) estimateBatch(ctx context.Context, qs []*query.Query) ([]float64, error) {
	ctx, sp := obs.StartSpan(ctx, "rpc_estimate", obs.Int("queries", len(qs)))
	defer sp.End()
	req := wire.EstimateRequest{V: wire.Version, Queries: wire.EncodeQueries(qs)}
	var resp *wire.EstimateResponse
	err := t.postData(ctx, t.prefix+"/estimate", "",
		func(c wire.Codec) ([]byte, error) { return c.EncodeEstimateRequest(&req) },
		func(c wire.Codec, raw []byte) error {
			var derr error
			resp, derr = c.DecodeEstimateResponse(raw)
			return derr
		})
	if err != nil {
		return nil, err
	}
	if len(resp.Estimates) != len(qs) {
		return nil, fmt.Errorf("%w: %d estimates for %d queries",
			ErrUnavailable, len(resp.Estimates), len(qs))
	}
	t.queries.Add(int64(len(qs)))
	return wire.ToFloats(resp.Estimates), nil
}

// postData sends one data-path exchange in the negotiated codec. The
// request body travels in wireCodec()'s encoding; the Accept header asks
// for the same back, and the response is decoded by whatever
// Content-Type the server chose (a binary-asking client must still
// accept JSON from a JSON-only server). A 415 downgrades the codec to
// JSON — sticky, so one old server demotes the connection exactly once
// — and resends under the same token. Every other non-200 reply is
// classified onto the pipeline's error taxonomy; token "" sends no
// X-Pace-Execute-Token.
func (t *RemoteTarget) postData(ctx context.Context, path, token string, encode func(wire.Codec) ([]byte, error), decode func(wire.Codec, []byte) error) error {
	for {
		c := t.wireCodec()
		payload, err := encode(c)
		if err != nil {
			return fmt.Errorf("remote: encode: %w", err)
		}
		call := Call{Method: http.MethodPost, Path: path, ContentType: c.ContentType(), Body: payload,
			ClientID: t.opts.ClientID, Backstop: t.opts.RequestTimeout}
		if c.Name() == "binary" {
			// Ask for binary responses; JSON stays acceptable implicitly —
			// the server falls back to it when binary is disabled.
			call.Accept = wire.BinaryContentType
		}
		if token != "" {
			call.Header = map[string]string{wire.ExecuteTokenHeader: token}
		}
		t.requests.Add(1)
		t.bytesOut.Add(int64(len(payload)))
		rep, err := t.c.Exchange(ctx, call)
		if err != nil {
			return t.unreachable(err)
		}
		t.bytesIn.Add(int64(len(rep.Body)))
		switch {
		case rep.Status == http.StatusUnsupportedMediaType && c.Name() != "json":
			t.downgraded.Store(true)
			continue
		case rep.Status != http.StatusOK:
			return t.classify(rep)
		}
		respC, ok := wire.CodecForContentType(rep.Header.Get("Content-Type"))
		if !ok {
			t.unavailableCount.Add(1)
			return fmt.Errorf("%w: response in unknown content type %q", ErrUnavailable, rep.Header.Get("Content-Type"))
		}
		if err := decode(respC, rep.Body); err != nil {
			t.unavailableCount.Add(1)
			return fmt.Errorf("%w: malformed response: %v", ErrUnavailable, err)
		}
		return nil
	}
}

// unreachable classifies a failed exchange. The caller's context
// expiring is its own error class — the retry layer must NOT retry it;
// anything else is ErrUnavailable.
func (t *RemoteTarget) unreachable(err error) error {
	if ctxEnded(err) {
		return err
	}
	t.unavailableCount.Add(1)
	return fmt.Errorf("%w: %v", ErrUnavailable, err)
}

// classify maps a non-200 reply onto the pipeline's error taxonomy:
//
//	429                      → ErrOverloaded (transient; server said back off)
//	503 with Retry-After     → ErrOverloaded (transient; rebuild/revival window)
//	other 4xx                → ce.ErrInvalidQuery (permanent; do not retry)
//	other 5xx                → ErrUnavailable (transient)
//
// Shed replies surface as *OverloadError carrying the parsed Retry-After
// hint, so the resilience layer backs off exactly as long as the server
// asked. A bare 503 (no header — e.g. a draining server) stays
// ErrUnavailable: retry against a healthy peer, no mandated wait. The
// server's machine-readable code and message ride along for logs.
func (t *RemoteTarget) classify(rep *Reply) error {
	var er wire.ErrorResponse
	msg := strings.TrimSpace(string(rep.Body))
	if err := json.Unmarshal(rep.Body, &er); err == nil && er.Error != "" {
		msg = er.Code + ": " + er.Error
	}
	hint := parseRetryAfter(rep.Header.Get("Retry-After"))
	switch {
	case rep.Status == http.StatusTooManyRequests,
		rep.Status == http.StatusServiceUnavailable && hint > 0:
		t.overloaded.Add(1)
		return &OverloadError{Status: rep.Status, RetryAfter: hint,
			Msg: fmt.Sprintf("http %d: %s", rep.Status, msg)}
	case rep.Status >= 400 && rep.Status < 500:
		t.invalid.Add(1)
		return fmt.Errorf("%w: http %d: %s", ce.ErrInvalidQuery, rep.Status, msg)
	default:
		t.unavailableCount.Add(1)
		return fmt.Errorf("%w: http %d: %s", ErrUnavailable, rep.Status, msg)
	}
}
