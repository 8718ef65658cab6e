package tenant

import (
	"context"
	"errors"
	"time"

	"pace/internal/query"
)

// ErrUnknownExecution marks a streamed-execute token the tenant does
// not know — never opened, or already deleted (HTTP 404, code
// "unknown_execution").
var ErrUnknownExecution = errors.New("tenant: no such execution")

// maxExecutions bounds the per-tenant execution registry. Opening past
// the cap evicts the least-recently-touched finished execution; when
// every slot is still running, the open sheds (ErrQueueFull).
const maxExecutions = 64

// ExecutionStatus snapshots one streamed execution's progress.
type ExecutionStatus struct {
	Token string
	// Pending counts chunks enqueued but not yet applied by the model
	// goroutine; Applied counts chunks retrained; Queries counts the
	// queries across applied chunks.
	Pending, Applied, Queries int64
	// Err is the first chunk failure; non-nil means the stream failed.
	Err error
}

// Done reports stream completion from the server's view: nothing
// in flight. The client's completion condition adds "all chunks acked".
func (st ExecutionStatus) Done() bool { return st.Pending == 0 }

// execution is one open streamed execute: the dedupe set of acked chunk
// sequence numbers plus progress counters. Chunks are enqueued onto the
// tenant's ordinary execQ — streaming changes only when the client
// blocks (never, past the enqueue ack), not how retrains serialize.
type execution struct {
	token   string
	seqs    map[int64]bool // acked (enqueued) chunk seqs, incl. applied
	pending int64
	applied int64
	queries int64
	failed  error
	touched time.Time
	// opened and lastDone bound the stream's completion latency:
	// OpenExecution → the last moment pending drained to zero. Observed
	// once, at DeleteExecution.
	opened   time.Time
	lastDone time.Time
}

func (e *execution) status() ExecutionStatus {
	return ExecutionStatus{
		Token:   e.token,
		Pending: e.pending,
		Applied: e.applied,
		Queries: e.queries,
		Err:     e.failed,
	}
}

// OpenExecution registers (or idempotently re-opens) a streamed execute
// under a client-chosen token. Re-opening an existing token returns its
// current status unchanged — that is what makes a whole-stream retry
// after a failover safe.
func (t *Tenant) OpenExecution(token string) (ExecutionStatus, error) {
	if t.Draining() {
		return ExecutionStatus{}, ErrDraining
	}
	t.lastActive.Store(time.Now().UnixNano())
	t.execsMu.Lock()
	defer t.execsMu.Unlock()
	if t.execs == nil {
		t.execs = map[string]*execution{}
	}
	if e, ok := t.execs[token]; ok {
		e.touched = time.Now()
		return e.status(), nil
	}
	if len(t.execs) >= maxExecutions && !t.evictFinishedLocked() {
		t.m.Shed.Inc()
		return ExecutionStatus{}, ErrQueueFull
	}
	now := time.Now()
	e := &execution{token: token, seqs: map[int64]bool{}, touched: now, opened: now}
	t.execs[token] = e
	return e.status(), nil
}

// evictFinishedLocked drops the least-recently-touched execution with
// nothing in flight. Callers hold execsMu.
func (t *Tenant) evictFinishedLocked() bool {
	var victim string
	var oldest time.Time
	for tok, e := range t.execs {
		if e.pending > 0 {
			continue
		}
		if victim == "" || e.touched.Before(oldest) {
			victim, oldest = tok, e.touched
		}
	}
	if victim == "" {
		return false
	}
	delete(t.execs, victim)
	return true
}

func (t *Tenant) execution(token string) (*execution, bool) {
	t.execsMu.Lock()
	defer t.execsMu.Unlock()
	e, ok := t.execs[token]
	if ok {
		e.touched = time.Now()
	}
	return e, ok
}

// SubmitChunk enqueues one chunk of a streamed execute and acks as soon
// as it is queued — the retrain itself runs asynchronously on the model
// goroutine, so the client pipelines chunks and retrain throughput is
// the only bottleneck. A chunk whose (token, seq) was already acked is
// acked again without re-applying: exactly-once under whole-stream
// retries. A full execute queue sheds (ErrQueueFull, 429 + Retry-After
// on the wire) — that is flow control, the client resubmits the same
// seq after the hint.
func (t *Tenant) SubmitChunk(ctx context.Context, token string, seq int64, qs []*query.Query, cards []float64) (ExecutionStatus, error) {
	if t.Draining() {
		return ExecutionStatus{}, ErrDraining
	}
	t.lastActive.Store(time.Now().UnixNano())
	t.m.ExecReqs.Inc()
	e, ok := t.execution(token)
	if !ok {
		return ExecutionStatus{}, ErrUnknownExecution
	}

	t.execsMu.Lock()
	if e.seqs[seq] {
		st := e.status()
		t.execsMu.Unlock()
		t.m.ChunksDeduped.Inc()
		return st, nil // duplicate: ack again, apply nothing
	}
	// Mark before enqueueing so a concurrent duplicate of the same seq
	// cannot slip past the dedupe check; unmarked again if the queue
	// sheds.
	e.seqs[seq] = true
	e.pending++
	t.execsMu.Unlock()

	// The job keeps the request's telemetry and trace values but not its
	// lifetime: the 202 ack returns before the retrain runs, so the
	// submitting request expiring must not cancel the work.
	job := &execJob{ctx: context.WithoutCancel(ctx), qs: qs, cards: cards, reply: make(chan error, 1)}
	select {
	case t.execQ <- job:
	default:
		t.execsMu.Lock()
		delete(e.seqs, seq)
		e.pending--
		t.execsMu.Unlock()
		t.m.Shed.Inc()
		t.m.ChunksShed.Inc()
		return ExecutionStatus{}, ErrQueueFull
	}
	t.m.ChunksEnq.Inc()
	t.m.ExecQueries.Add(int64(len(qs)))
	go t.consumeChunk(e, job, int64(len(qs)))

	t.execsMu.Lock()
	st := e.status()
	t.execsMu.Unlock()
	return st, nil
}

// consumeChunk waits for one async chunk's retrain result and folds it
// into the execution's counters. If the tenant drains before the model
// goroutine answers, the drain path (drainQueues) still replies; only a
// job lost past that records the drain as the chunk's failure.
func (t *Tenant) consumeChunk(e *execution, job *execJob, nQueries int64) {
	var err error
	select {
	case err = <-job.reply:
	case <-t.done:
		select {
		case err = <-job.reply:
		default:
			err = ErrDraining
		}
	}
	t.execsMu.Lock()
	e.pending--
	if err != nil {
		if e.failed == nil {
			e.failed = err
		}
	} else {
		e.applied++
		e.queries += nQueries
	}
	if e.pending == 0 {
		e.lastDone = time.Now()
	}
	t.execsMu.Unlock()
}

// ExecutionStatus reports one execution's progress for the poll
// endpoint.
func (t *Tenant) ExecutionStatus(token string) (ExecutionStatus, error) {
	t.lastActive.Store(time.Now().UnixNano())
	e, ok := t.execution(token)
	if !ok {
		return ExecutionStatus{}, ErrUnknownExecution
	}
	t.execsMu.Lock()
	st := e.status()
	t.execsMu.Unlock()
	return st, nil
}

// DeleteExecution forgets a token's dedupe state (chunks already
// enqueued keep retraining). Clients call it once a stream completes.
func (t *Tenant) DeleteExecution(token string) (ExecutionStatus, error) {
	t.execsMu.Lock()
	defer t.execsMu.Unlock()
	e, ok := t.execs[token]
	if !ok {
		return ExecutionStatus{}, ErrUnknownExecution
	}
	delete(t.execs, token)
	// The delete marks the stream's lifecycle end; observe its completion
	// latency (open → last chunk applied) once, here.
	if !e.opened.IsZero() && !e.lastDone.IsZero() && e.lastDone.After(e.opened) {
		t.m.StreamSeconds.Observe(e.lastDone.Sub(e.opened).Seconds())
	}
	return e.status(), nil
}
