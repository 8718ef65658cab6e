// Package wire defines the versioned JSON protocol spoken between the
// paced estimator service (internal/targetserver) and its clients
// (internal/remote). The codec is canonical and lossless: every float64
// that matters — predicate bounds and cardinality labels — travels as
// its IEEE-754 bit pattern, so a query decoded on the server has exactly
// the same query.Key as the one the client encoded (join bits + bound
// bit patterns, including ±Inf, subnormals and negative zero). Estimates
// travel the same way, which is what makes a remote campaign bit-identical
// to an in-process one for a fixed seed.
//
// The protocol is deliberately schema-bound: client and server must be
// built against the same query.Meta (same dataset + scale + seed). The
// server validates every decoded query's shape against its meta and
// rejects mismatches as invalid queries, never guessing.
package wire

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"pace/internal/query"
)

// Version is the protocol version this build speaks. Requests carry it
// in the "v" field; the server rejects any other value with
// CodeBadRequest, so an incompatible client fails fast instead of
// decoding garbage.
const Version = 1

// MaxBatch is the hard per-request query cap the server enforces
// regardless of its configured micro-batch size; it bounds request
// memory, not throughput.
const MaxBatch = 4096

// MaxBody bounds every body on the wire, request or response, in bytes:
// MaxBatch queries at ~16B a bound leave ample headroom at 64 MiB.
const MaxBody = 64 << 20

// B64 transports a float64 as its IEEE-754 bit pattern. encoding/json
// round-trips uint64 exactly (all 20 digits), which float64 JSON
// formatting cannot promise for NaN payloads and does not permit at all
// for ±Inf.
type B64 uint64

// FromFloat captures f's bit pattern.
func FromFloat(f float64) B64 { return B64(math.Float64bits(f)) }

// Float reconstructs the exact float64.
func (b B64) Float() float64 { return math.Float64frombits(uint64(b)) }

// FromFloats converts a float slice to bit patterns.
func FromFloats(fs []float64) []B64 {
	out := make([]B64, len(fs))
	for i, f := range fs {
		out[i] = FromFloat(f)
	}
	return out
}

// ToFloats converts bit patterns back to floats.
func ToFloats(bs []B64) []float64 {
	out := make([]float64, len(bs))
	for i, b := range bs {
		out[i] = b.Float()
	}
	return out
}

// Query is the wire form of a query.Query: the indexes of the joined
// tables (ascending) and the per-attribute [lo, hi] bound bit patterns
// for every attribute of the schema, constrained or not.
type Query struct {
	Tables []int    `json:"t"`
	Bounds [][2]B64 `json:"b"`
}

// EncodeQuery converts q to its wire form. It encodes q verbatim — no
// normalization — so the decoded query is Key-identical to q.
func EncodeQuery(q *query.Query) Query {
	wq := Query{Bounds: make([][2]B64, len(q.Bounds))}
	for t, in := range q.Tables {
		if in {
			wq.Tables = append(wq.Tables, t)
		}
	}
	for a, b := range q.Bounds {
		wq.Bounds[a] = [2]B64{FromFloat(b[0]), FromFloat(b[1])}
	}
	return wq
}

// EncodeQueries converts a batch.
func EncodeQueries(qs []*query.Query) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = EncodeQuery(q)
	}
	return out
}

// Decode reconstructs the query against m, validating its shape: table
// indexes must be in range and strictly ascending, and the bound list
// must cover exactly the schema's attributes. Bounds are restored
// bit-for-bit (no clamping), preserving query.Key.
func (wq Query) Decode(m *query.Meta) (*query.Query, error) {
	if len(wq.Bounds) != m.NumAttrs() {
		return nil, fmt.Errorf("wire: query has %d bounds, schema has %d attributes",
			len(wq.Bounds), m.NumAttrs())
	}
	q := &query.Query{
		Tables: make([]bool, m.NumTables()),
		Bounds: make([][2]float64, len(wq.Bounds)),
	}
	if !sort.IntsAreSorted(wq.Tables) {
		return nil, errors.New("wire: table indexes not ascending")
	}
	for i, t := range wq.Tables {
		if t < 0 || t >= m.NumTables() {
			return nil, fmt.Errorf("wire: table index %d out of range [0,%d)", t, m.NumTables())
		}
		if i > 0 && wq.Tables[i-1] == t {
			return nil, fmt.Errorf("wire: duplicate table index %d", t)
		}
		q.Tables[t] = true
	}
	for a, b := range wq.Bounds {
		q.Bounds[a] = [2]float64{b[0].Float(), b[1].Float()}
	}
	return q, nil
}

// DecodeQueries reconstructs a batch, failing on the first bad query.
func DecodeQueries(m *query.Meta, wqs []Query) ([]*query.Query, error) {
	out := make([]*query.Query, len(wqs))
	for i, wq := range wqs {
		q, err := wq.Decode(m)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// EstimateRequest asks for the estimator's cardinality estimate of each
// query. POST /v1/targets/{id}/estimate.
type EstimateRequest struct {
	V       int     `json:"v"`
	Queries []Query `json:"queries"`
}

// EstimateResponse carries one estimate per request query, in order, as
// exact bit patterns.
type EstimateResponse struct {
	V         int   `json:"v"`
	Estimates []B64 `json:"estimates"`
}

// ExecuteRequest reports executed queries and their true cardinalities —
// the feedback channel that drives the estimator's incremental
// retraining. POST /v1/targets/{id}/execute.
type ExecuteRequest struct {
	V       int     `json:"v"`
	Queries []Query `json:"queries"`
	Cards   []B64   `json:"cards"`
}

// ExecuteResponse acknowledges an executed batch.
type ExecuteResponse struct {
	V        int `json:"v"`
	Executed int `json:"executed"`
}

// Error codes carried by ErrorResponse. The client maps them onto the
// pipeline's error taxonomy (see internal/remote):
//
//	bad_request, invalid_query      → permanent (ce.ErrInvalidQuery)
//	unknown_target, target_exists   → permanent (the tenant route is wrong)
//	unauthorized                    → permanent (fix the bearer token)
//	rate_limited, overloaded        → transient, back off (429 + Retry-After)
//	quota_exceeded                  → transient-ish (429 + Retry-After; free a
//	                                  tenant slot, or wait for idle eviction)
//	draining, not_ready, internal   → transient (retry against a healthy peer)
//	evicted                         → transient (503 + Retry-After; the first
//	                                  request triggers lazy revival — retry
//	                                  until the tenant is rebuilt)
const (
	CodeBadRequest    = "bad_request"
	CodeInvalidQuery  = "invalid_query"
	CodeRateLimited   = "rate_limited"
	CodeOverloaded    = "overloaded"
	CodeDraining      = "draining"
	CodeInternal      = "internal"
	CodeUnknownTarget = "unknown_target"
	CodeTargetExists  = "target_exists"
	CodeUnauthorized  = "unauthorized"
	CodeNotReady      = "not_ready"
	CodeQuotaExceeded = "quota_exceeded"
	CodeEvicted       = "evicted"
	// CodeBadFrame marks a binary frame the parser rejected (400,
	// permanent — re-encoding the same frame cannot help).
	CodeBadFrame = "bad_frame"
	// CodeUnsupportedMedia marks a Content-Type the server does not
	// speak (415). Clients downgrade to JSON and resend.
	CodeUnsupportedMedia = "unsupported_media"
)

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	V     int    `json:"v"`
	Code  string `json:"code"`
	Error string `json:"error"`
}

// TargetSpec names the world a tenant should host — what POST
// /v1/targets accepts. A fixed (dataset, model, seed, seed_offset,
// scale) spec always provisions a victim with bit-identical weights.
type TargetSpec struct {
	ID         string  `json:"id"`
	Dataset    string  `json:"dataset"`
	Model      string  `json:"model"`
	Seed       int64   `json:"seed"`
	SeedOffset int64   `json:"seed_offset,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	// CacheSize enables the tenant's LRU estimate cache (a modeled DBMS
	// plan cache) with this many entries; 0 disables it.
	CacheSize int `json:"cache_size,omitempty"`
}

// TargetInfo is one tenant's directory entry: its spec plus lifecycle
// state ("creating", "ready" or "draining").
type TargetInfo struct {
	TargetSpec
	State string `json:"state"`
}

// CreateTargetRequest provisions a tenant at runtime. POST /v1/targets.
// The call blocks until the world is trained (or fails); while it runs,
// the tenant lists as "creating" and duplicate creates answer 409.
type CreateTargetRequest struct {
	V      int        `json:"v"`
	Target TargetSpec `json:"target"`
}

// CreateTargetResponse acknowledges a provisioned tenant.
type CreateTargetResponse struct {
	V      int        `json:"v"`
	Target TargetInfo `json:"target"`
}

// ListTargetsResponse is the directory listing. GET /v1/targets.
type ListTargetsResponse struct {
	V       int          `json:"v"`
	Targets []TargetInfo `json:"targets"`
}

// DeleteTargetResponse acknowledges a drained-and-removed tenant.
// DELETE /v1/targets/{id}.
type DeleteTargetResponse struct {
	V       int    `json:"v"`
	Deleted string `json:"deleted"`
}

// HealthzResponse reports overall service health plus each tenant's
// readiness state, so load balancers and harnesses can watch tenants
// independently. GET /healthz (per-tenant form: GET
// /v1/targets/{id}/healthz answers 200 only for a ready tenant).
type HealthzResponse struct {
	Status  string            `json:"status"` // "ok" or "draining"
	Tenants map[string]string `json:"tenants"`
}

// BackendStatus is one fleet member's health entry: its base URL, the
// router's current up/down verdict, and how many tenants it hosts.
type BackendStatus struct {
	URL     string `json:"url"`
	Up      bool   `json:"up"`
	Tenants int    `json:"tenants"`
}

// TenantPlacement reports where the router has placed a tenant and what
// lifecycle state the placement is in ("ready", "rebuilding" or
// "evicted"). Backend is empty while evicted.
type TenantPlacement struct {
	State   string `json:"state"`
	Backend string `json:"backend,omitempty"`
}

// FleetStatusResponse is pacerouter's admin view: per-backend health and
// the tenant placement map. GET /v1/fleet.
type FleetStatusResponse struct {
	V        int                        `json:"v"`
	Status   string                     `json:"status"` // "ok" or "degraded"
	Backends []BackendStatus            `json:"backends"`
	Tenants  map[string]TenantPlacement `json:"tenants"`
}

// ClientHeader names the self-reported client identity used for
// per-client rate limiting when a server runs without auth tokens. It
// is advisory — anyone can claim any name — which is why servers with
// tokens derive the identity from the bearer token instead.
const ClientHeader = "X-Pace-Client"

// ExecuteTokenHeader carries an execute's idempotency token. A tenant
// acks an execute whose token it has already applied without
// retraining again, so a whole-call retry after a lost ack applies the
// workload once. Clients mint a fresh token per logical call and reuse
// it only for that call's retries; a request without the header is
// never deduplicated.
const ExecuteTokenHeader = "X-Pace-Execute-Token"

// TraceHeader carries distributed-trace context on every data-path
// request, in W3C traceparent form: 00-<32 hex trace>-<16 hex span>-01.
// The span field is the caller's current span ID; the receiving process
// parents its server-side spans under it so a fleet-wide trace merge
// (cmd/pacetrace) stitches the per-process JSONL files into one tree.
// Requests without the header are served normally but untraced.
const TraceHeader = "X-Pace-Trace"

// MaxExecutionToken bounds a client-supplied execute token.
const MaxExecutionToken = 128

// ValidExecutionToken reports whether an execute token is well formed:
// non-empty, bounded, URL-safe charset.
func ValidExecutionToken(tok string) bool {
	if tok == "" || len(tok) > MaxExecutionToken {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// RetryAfter renders a Retry-After header value (whole seconds, min 1)
// from a duration hint.
func RetryAfter(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}
