// Package tenant turns one paced process into a host for many estimator
// worlds. Each Tenant is a named (dataset, model, seed) cell of the
// experiment matrix — CardBench-style benchmarking and PACE's own
// evaluation both need many model/dataset worlds side by side — and owns
// everything that must not be shared across cells:
//
//   - the trained ce.Target and its query.Meta (schema);
//   - a single model goroutine: CE model Forward passes and incremental
//     updates are stateful, so every estimate and every retraining step
//     of one tenant is serialized through its own loop, while different
//     tenants proceed in parallel;
//   - bounded admission queues (estimate and execute) that shed when
//     full instead of queueing without limit;
//   - per-client token buckets, so one tenant's noisy client cannot
//     starve another client of the same tenant;
//   - an optional LRU estimate cache keyed on query.Key, modeling a
//     DBMS plan cache: repeated estimates answer without touching the
//     model goroutine, and every executed (retraining) batch flushes it
//     so a cached estimate is always bit-identical to a fresh one.
//
// The Registry is the concurrency-safe directory of live tenants; the
// HTTP layer (internal/targetserver) routes /v1/targets/{id}/... onto it
// and the admin surface creates and destroys tenants at runtime through
// a Factory without restarting the process.
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
)

// Errors the service layer maps onto the wire protocol.
var (
	// ErrQueueFull marks a shed request: the tenant's bounded admission
	// queue was full (HTTP 429, code "overloaded").
	ErrQueueFull = errors.New("tenant: admission queue full")
	// ErrDraining marks a request refused because the tenant is shutting
	// down (HTTP 503, code "draining").
	ErrDraining = errors.New("tenant: draining")
	// ErrNotFound marks a lookup of an unknown tenant id (HTTP 404).
	ErrNotFound = errors.New("tenant: no such tenant")
	// ErrExists marks a create of an id that is already registered
	// (HTTP 409).
	ErrExists = errors.New("tenant: tenant already exists")
	// ErrNotReady marks a tenant still being provisioned — its world is
	// training (HTTP 503, code "not_ready"; retryable).
	ErrNotReady = errors.New("tenant: still provisioning")
	// ErrQuota marks a create refused by admission control — the host is
	// at its tenant cap, or the owner at its per-owner quota (HTTP 429,
	// code "quota_exceeded").
	ErrQuota = errors.New("tenant: quota exceeded")
	// ErrEvicted marks a lookup of a tenant whose live state was spilled
	// by idle eviction. Its spec survives; revival rebuilds it (HTTP 503,
	// code "evicted"; retryable).
	ErrEvicted = errors.New("tenant: evicted")
	// ErrCreatePanic marks a Factory that panicked mid-build. The slot is
	// released — the id can be created again (HTTP 500, code "internal").
	ErrCreatePanic = errors.New("tenant: factory panicked")
)

// Spec identifies the world a tenant hosts. It is what the admin API
// accepts: the Factory turns it into a trained target. A fixed
// (Dataset, Model, Seed, SeedOffset, Scale) spec always yields a victim
// with bit-identical weights, which is what lets a remote matrix cell
// reproduce its in-process twin exactly.
type Spec struct {
	// ID names the tenant in routes (/v1/targets/{id}/...) and metric
	// labels.
	ID string
	// Dataset and Model name the hosted world (parsed by the Factory).
	Dataset string
	Model   string
	// Seed fixes the world's randomness; SeedOffset decorrelates twin
	// victims of the same world (0 means 1, the cmd/pace convention).
	Seed       int64
	SeedOffset int64
	// Scale is the dataset scale factor (0 = profile default).
	Scale float64
	// CacheSize enables the per-tenant LRU estimate cache with this many
	// entries (0 = no cache).
	CacheSize int
	// Owner is the identity of the client that provisioned the tenant,
	// stamped by the server from the authenticated caller — it is never
	// accepted off the wire. Per-owner quotas (Config.MaxPerOwner) count
	// it; empty means unowned (boot-time tenants).
	Owner string
}

func (s Spec) withDefaults() Spec {
	if s.SeedOffset == 0 {
		s.SeedOffset = 1
	}
	return s
}

// Config tunes one tenant's serving machinery. The zero value serves
// with the same defaults the single-tenant server used.
type Config struct {
	// MaxBatch caps the model goroutine's micro-batch in queries
	// (default 64).
	MaxBatch int
	// BatchWindow is how long the model goroutine gathers more estimate
	// jobs after the first (default 200µs).
	BatchWindow time.Duration
	// QueueDepth bounds the estimate admission queue (default 128).
	QueueDepth int
	// ExecQueueDepth bounds the execute queue (default 8).
	ExecQueueDepth int
	// RatePerSec and Burst configure the per-client token bucket
	// (RatePerSec 0 disables; Burst 0 = one second of tokens).
	RatePerSec float64
	Burst      int
	// MaxTenants caps how many tenants (live, provisioning or evicted)
	// the registry admits; 0 = unlimited. Creates beyond the cap answer
	// ErrQuota.
	MaxTenants int
	// MaxPerOwner caps how many tenants one owner may hold; 0 =
	// unlimited. Only specs with a non-empty Owner are counted.
	MaxPerOwner int
	// Telemetry binds the tenant's instruments (tenant-labeled paced_*
	// families) to a registry; nil disables them.
	Telemetry *obs.Telemetry
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 200 * time.Microsecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 128
	}
	if c.ExecQueueDepth <= 0 {
		c.ExecQueueDepth = 8
	}
	if c.Burst <= 0 {
		c.Burst = int(c.RatePerSec)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
	return c
}

type estJob struct {
	ctx   context.Context
	qs    []*query.Query
	wait  *obs.Span     // queue_wait: enqueue → picked up by the model loop
	reply chan estReply // buffered(1): the model loop never blocks on it
}

type estReply struct {
	ests []float64
	err  error
}

type execJob struct {
	ctx   context.Context
	qs    []*query.Query
	cards []float64
	reply chan error // buffered(1)
}

// Metrics are one tenant's instruments. Every field is nil-safe (no-op
// without telemetry); names carry a {tenant="id"} label so /metrics
// exposes each tenant's traffic independently.
type Metrics struct {
	EstReqs, EstQueries   *obs.Counter
	ExecReqs, ExecQueries *obs.Counter
	Shed, RateLimited     *obs.Counter
	Invalid, Errors       *obs.Counter
	Batches               *obs.Counter
	CacheHits, CacheMiss  *obs.Counter
	// Streamed-execute accounting: chunks enqueued onto the execute
	// queue, duplicate (token, seq) acks, chunks shed by a full queue,
	// and whole-stream completion latency (open → last chunk applied).
	ChunksEnq, ChunksDeduped, ChunksShed *obs.Counter
	QueueDepth, Ready                    *obs.Gauge
	Batch, LatencyUs                     *obs.Histogram
	StreamSeconds                        *obs.Histogram
}

// Tenant is one hosted estimator world. Create through a Registry (or
// NewTenant for direct embedding); always Drain it eventually — the
// model goroutine runs until then.
type Tenant struct {
	spec   Spec
	cfg    Config
	target ce.Target
	meta   *query.Meta

	estQ  chan *estJob
	execQ chan *execJob
	stop  chan struct{} // closed by Drain
	done  chan struct{} // closed when the model goroutine exits

	mu       sync.Mutex
	draining bool
	clients  map[string]*bucket

	// execsMu guards the streamed-execute registry (execution.go).
	execsMu sync.Mutex
	execs   map[string]*execution

	// lastActive is the unix-nano timestamp of the most recent Estimate
	// or Execute call; the idle-eviction janitor reads it through IdleFor.
	lastActive atomic.Int64

	cache *estCache

	m Metrics
}

// NewTenant builds a tenant around an already-trained target and starts
// its model goroutine.
func NewTenant(spec Spec, target ce.Target, meta *query.Meta, cfg Config) *Tenant {
	spec = spec.withDefaults()
	cfg = cfg.withDefaults()
	t := &Tenant{
		spec:    spec,
		cfg:     cfg,
		target:  target,
		meta:    meta,
		estQ:    make(chan *estJob, cfg.QueueDepth),
		execQ:   make(chan *execJob, cfg.ExecQueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		clients: make(map[string]*bucket),
	}
	if spec.CacheSize > 0 {
		t.cache = newEstCache(spec.CacheSize)
	}
	t.lastActive.Store(time.Now().UnixNano())
	t.instrument(cfg.Telemetry.Registry())
	go t.modelLoop()
	return t
}

// labeled formats a tenant-labeled metric name; the obs registry emits
// `base{label}` names verbatim with the TYPE derived from the base.
func labeled(base, id string) string {
	return fmt.Sprintf("%s{tenant=%q}", base, id)
}

func (t *Tenant) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	id := t.spec.ID
	t.m = Metrics{
		EstReqs:     reg.Counter(labeled("paced_estimate_requests_total", id)),
		EstQueries:  reg.Counter(labeled("paced_estimate_queries_total", id)),
		ExecReqs:    reg.Counter(labeled("paced_execute_requests_total", id)),
		ExecQueries: reg.Counter(labeled("paced_execute_queries_total", id)),
		Shed:        reg.Counter(labeled("paced_shed_total", id)),
		RateLimited: reg.Counter(labeled("paced_rate_limited_total", id)),
		Invalid:     reg.Counter(labeled("paced_invalid_queries_total", id)),
		Errors:      reg.Counter(labeled("paced_errors_total", id)),
		Batches:     reg.Counter(labeled("paced_batches_total", id)),
		CacheHits:   reg.Counter(labeled("paced_est_cache_hits_total", id)),
		CacheMiss:   reg.Counter(labeled("paced_est_cache_misses_total", id)),
		QueueDepth:  reg.Gauge(labeled("paced_estimate_queue_depth", id)),
		Ready:       reg.Gauge(labeled("paced_tenant_ready", id)),
	}
	t.m.ChunksEnq = reg.Counter(labeled("paced_stream_chunks_enqueued_total", id))
	t.m.ChunksDeduped = reg.Counter(labeled("paced_stream_chunks_deduped_total", id))
	t.m.ChunksShed = reg.Counter(labeled("paced_stream_chunks_shed_total", id))
	t.m.Batch = reg.Histogram(labeled("paced_batch_queries", id))
	t.m.LatencyUs = reg.Histogram(labeled("paced_estimate_latency_us", id))
	t.m.StreamSeconds = reg.Histogram(labeled("paced_stream_completion_seconds", id))
	t.m.Ready.Set(1)
}

// Spec returns the tenant's identity.
func (t *Tenant) Spec() Spec { return t.spec }

// Meta returns the schema queries are decoded against.
func (t *Tenant) Meta() *query.Meta { return t.meta }

// Metrics returns the tenant's instruments (all nil-safe).
func (t *Tenant) Metrics() *Metrics { return &t.m }

// Draining reports whether the tenant has begun shutting down.
func (t *Tenant) Draining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}

// CacheStats reports the estimate cache's hit/miss/size counts (zero
// when the cache is disabled).
func (t *Tenant) CacheStats() (hits, misses int64, size int) {
	if t.cache == nil {
		return 0, 0, 0
	}
	return t.cache.stats()
}

// Estimate answers a batch of decoded queries. Cache hits answer
// immediately; misses ride the model goroutine's micro-batches. It
// returns ErrQueueFull when admission sheds, ErrDraining when the tenant
// stopped, ctx.Err() when the caller gave up, or the model's error.
func (t *Tenant) Estimate(ctx context.Context, qs []*query.Query) ([]float64, error) {
	t.lastActive.Store(time.Now().UnixNano())
	t.m.EstReqs.Inc()
	t.m.EstQueries.Add(int64(len(qs)))
	start := time.Now()

	ests := make([]float64, len(qs))
	missIdx := make([]int, 0, len(qs))
	var gen uint64
	if t.cache != nil {
		gen = t.cache.generation()
		for i, q := range qs {
			if est, ok := t.cache.get(q.Key()); ok {
				ests[i] = est
			} else {
				missIdx = append(missIdx, i)
			}
		}
		t.m.CacheHits.Add(int64(len(qs) - len(missIdx)))
		t.m.CacheMiss.Add(int64(len(missIdx)))
		if len(missIdx) == 0 {
			t.m.LatencyUs.Observe(float64(time.Since(start).Microseconds()))
			return ests, nil
		}
	} else {
		for i := range qs {
			missIdx = append(missIdx, i)
		}
	}

	missQs := make([]*query.Query, len(missIdx))
	for j, i := range missIdx {
		missQs[j] = qs[i]
	}
	// The queue_wait span measures enqueue → model-loop pickup. It is
	// started without replacing ctx so the later model_inference span is
	// its sibling (both under the server span), not its child.
	_, wspan := obs.StartSpan(ctx, "queue_wait")
	job := &estJob{ctx: ctx, qs: missQs, wait: wspan, reply: make(chan estReply, 1)}
	select {
	case t.estQ <- job:
		t.m.QueueDepth.Add(1)
	default:
		wspan.End()
		t.m.Shed.Inc()
		return nil, ErrQueueFull
	}

	select {
	case rep := <-job.reply:
		if rep.err != nil {
			return nil, rep.err
		}
		for j, i := range missIdx {
			ests[i] = rep.ests[j]
			if t.cache != nil {
				t.cache.put(gen, qs[i].Key(), rep.ests[j])
			}
		}
		t.m.LatencyUs.Observe(float64(time.Since(start).Microseconds()))
		return ests, nil
	case <-ctx.Done():
		// The model loop will notice via job.ctx and skip the work.
		return nil, ctx.Err()
	case <-t.done:
		return nil, ErrDraining
	}
}

// Execute applies an executed-workload (retraining) batch through the
// model goroutine. The model's answers change, so the estimate cache is
// flushed once the update applies and before Execute returns: an
// estimate issued after an acked execute always reflects it (see
// runExec).
func (t *Tenant) Execute(ctx context.Context, qs []*query.Query, cards []float64) error {
	t.lastActive.Store(time.Now().UnixNano())
	t.m.ExecReqs.Inc()
	t.m.ExecQueries.Add(int64(len(qs)))
	job := &execJob{ctx: ctx, qs: qs, cards: cards, reply: make(chan error, 1)}
	select {
	case t.execQ <- job:
	default:
		t.m.Shed.Inc()
		return ErrQueueFull
	}
	select {
	case err := <-job.reply:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-t.done:
		return ErrDraining
	}
}

// IdleFor reports how long the tenant has gone without an Estimate or
// Execute call — the idle-eviction criterion.
func (t *Tenant) IdleFor() time.Duration {
	return time.Duration(time.Now().UnixNano() - t.lastActive.Load())
}

// Admit applies the tenant's per-client token bucket; false means the
// caller should answer 429 rate_limited.
func (t *Tenant) Admit(client string) bool {
	if t.cfg.RatePerSec <= 0 {
		return true
	}
	if t.takeToken(client) {
		return true
	}
	t.m.RateLimited.Inc()
	return false
}

// Drain refuses new work (Draining turns true), lets the model goroutine
// answer everything already queued, and waits for it to exit. ctx bounds
// the wait. Drain is idempotent.
func (t *Tenant) Drain(ctx context.Context) error {
	t.mu.Lock()
	already := t.draining
	t.draining = true
	t.mu.Unlock()
	t.m.Ready.Set(0)
	if !already {
		close(t.stop)
	}
	select {
	case <-t.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("tenant %s: drain: %w", t.spec.ID, ctx.Err())
	}
}

// modelLoop is the single goroutine that owns the tenant's estimator: it
// gathers estimate jobs into micro-batches and runs execute jobs one at
// a time. After stop it drains whatever is still queued (their callers
// are waiting on replies) and exits.
func (t *Tenant) modelLoop() {
	defer close(t.done)
	for {
		select {
		case j := <-t.estQ:
			t.m.QueueDepth.Add(-1)
			t.gatherAndEval(j)
		case j := <-t.execQ:
			t.runExec(j)
		case <-t.stop:
			t.drainQueues()
			return
		}
	}
}

// gatherAndEval collects more estimate jobs for up to BatchWindow (or
// until MaxBatch queries are pending), then evaluates them all.
func (t *Tenant) gatherAndEval(first *estJob) {
	first.wait.End()
	batch := []*estJob{first}
	n := len(first.qs)
	timer := time.NewTimer(t.cfg.BatchWindow)
	defer timer.Stop()
gather:
	for n < t.cfg.MaxBatch {
		select {
		case j := <-t.estQ:
			t.m.QueueDepth.Add(-1)
			j.wait.End()
			batch = append(batch, j)
			n += len(j.qs)
		case <-timer.C:
			break gather
		case <-t.stop:
			break gather
		}
	}
	t.m.Batches.Inc()
	t.m.Batch.Observe(float64(n))
	// The batch span parents under the first job's request. Batch
	// composition is timing-dependent, so trace-structure determinism
	// checks exclude "batch" spans (like the pace_pool_* counters).
	_, bsp := obs.StartSpan(first.ctx, "batch", obs.Int("jobs", len(batch)), obs.Int("queries", n))
	for _, j := range batch {
		j.reply <- t.evalJob(j)
	}
	bsp.End()
}

func (t *Tenant) evalJob(j *estJob) estReply {
	if err := j.ctx.Err(); err != nil {
		return estReply{err: err} // caller already gone; skip the work
	}
	ctx, sp := obs.StartSpan(j.ctx, "model_inference", obs.Int("queries", len(j.qs)))
	defer sp.End()
	ests := make([]float64, len(j.qs))
	for i, q := range j.qs {
		est, err := t.target.EstimateContext(ctx, q)
		if err != nil {
			return estReply{err: err}
		}
		ests[i] = est
	}
	return estReply{ests: ests}
}

// runExec applies one retrain and flushes the cache before the ack. One
// flush suffices because estimates are evaluated on this goroutine too:
// an estimate that read the cache generation before the flush has its
// put dropped, and one that read it after is evaluated on the retrained
// model.
func (t *Tenant) runExec(j *execJob) {
	if err := j.ctx.Err(); err != nil {
		j.reply <- err
		return
	}
	ctx, sp := obs.StartSpan(j.ctx, "retrain", obs.Int("queries", len(j.qs)))
	err := t.target.ExecuteWorkload(ctx, j.qs, j.cards)
	if t.cache != nil {
		t.cache.flush()
	}
	j.reply <- err
	sp.End()
}

// drainQueues answers every still-queued job after stop; their callers
// block on the reply channels until the drain completes.
func (t *Tenant) drainQueues() {
	for {
		select {
		case j := <-t.estQ:
			t.m.QueueDepth.Add(-1)
			j.wait.End()
			j.reply <- t.evalJob(j)
		case j := <-t.execQ:
			t.runExec(j)
		default:
			return
		}
	}
}

// bucket is one client's token bucket. Access is guarded by Tenant.mu.
type bucket struct {
	tokens float64
	last   time.Time
}

func (t *Tenant) takeToken(key string) bool {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.clients[key]
	if !ok {
		// Bound the client table: evict everything once it grows absurd
		// (an abusive client cycling identities); honest clients refill
		// to a full burst on their next request anyway.
		if len(t.clients) >= 4096 {
			t.clients = make(map[string]*bucket)
		}
		b = &bucket{tokens: float64(t.cfg.Burst), last: now}
		t.clients[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * t.cfg.RatePerSec
		if max := float64(t.cfg.Burst); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
