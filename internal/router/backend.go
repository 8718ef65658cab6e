package router

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/obs"
	"pace/internal/remote"
	"pace/internal/resilience"
)

// backend is one paced fleet member as the router sees it: its base URL,
// a circuit breaker accumulating probe and data-path failures, and the
// current up/down verdict.
//
// The breaker gives the health checker its failure-threshold and
// half-open semantics for free: FailThreshold consecutive failures open
// it (the backend is marked down and its tenants fail over), and while
// open, Allow() rejects — probes are skipped for the Cooldown, after
// which one probe rides through half-open and a success closes the
// breaker and marks the backend up again.
type backend struct {
	url string
	br  *resilience.Breaker
	up  atomic.Bool

	// client carries all traffic to this backend: proxied calls, journal
	// replay, stream re-opens, health probes and, through admin,
	// provisioning, listing and deleting tenants. Its transport books
	// every outcome into the breaker (see recordingTransport).
	client *remote.Client
	admin  *remote.Admin

	mUp *obs.Gauge // router_backend_up{backend="url"}; nil-safe
}

// recordingTransport is the one place backend health is booked: every
// exchange with the backend passes through it and books exactly one
// outcome, when its reply body is done. Any HTTP answer means a live
// backend, except a /healthz probe's: only its 200 counts as healthy (a
// draining backend answers 503). A failure under a canceled caller
// context is not held against the backend; a probe's own timeout is.
type recordingTransport struct {
	rt   *Router
	b    *backend
	base http.RoundTripper
}

func (t *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.base
	if base == nil {
		base = http.DefaultTransport
	}
	probe := req.URL.Path == "/healthz"
	book := func(err error) {
		if err == nil || probe || req.Context().Err() == nil {
			t.rt.recordBackend(t.b, err)
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		book(err)
		return nil, err
	}
	var verdict error
	if probe && resp.StatusCode != http.StatusOK {
		verdict = fmt.Errorf("router: %s /healthz answered %d", t.b.url, resp.StatusCode)
	}
	resp.Body = &recordingBody{ReadCloser: resp.Body, verdict: verdict, book: book}
	return resp, nil
}

// recordingBody books its exchange's outcome once: the read error if
// reading fails, else the verdict when the body ends or is closed.
type recordingBody struct {
	io.ReadCloser
	verdict error
	book    func(error)
	once    sync.Once
}

func (b *recordingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	switch {
	case err == io.EOF:
		b.done(b.verdict)
	case err != nil:
		b.done(err)
	}
	return n, err
}

func (b *recordingBody) Close() error {
	b.done(b.verdict)
	return b.ReadCloser.Close()
}

func (b *recordingBody) done(err error) { b.once.Do(func() { b.book(err) }) }

// healthLoop polls one backend for its whole life. Each tick consults
// the breaker first: while open (cooling down after the failure
// threshold) the probe is skipped entirely — that skip IS the down
// window — and the first tick past the cooldown is the half-open probe.
func (rt *Router) healthLoop(b *backend) {
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		rt.probeOnce(b)
		select {
		case <-rt.core.Done():
			return
		case <-tick.C:
		}
	}
}

// probeOnce runs a single health check against b: GET /healthz must
// answer 200 (a draining or dead backend must not receive placements or
// traffic). recordingTransport books the verdict.
func (rt *Router) probeOnce(b *backend) {
	if err := b.br.Allow(); err != nil {
		return // breaker open: still cooling down, stay down
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	b.client.Exchange(ctx, remote.Call{Method: http.MethodGet, Path: "/healthz"}) //nolint:errcheck // booked by the transport
}

// recordBackend feeds one observed outcome (probe or data-path) into
// the backend's breaker and drives the up/down transitions. A success
// closes the breaker and, on a down→up edge, reconciles the backend; a
// failure that opens the breaker forces the up→down edge and fails the
// backend's tenants over.
func (rt *Router) recordBackend(b *backend, err error) {
	b.br.Record(err)
	if err == nil {
		if !b.up.Swap(true) {
			b.mUp.Set(1)
			go rt.backendRecovered(b)
		}
		return
	}
	if b.br.Stats().Open && b.up.Swap(false) {
		b.mUp.Set(0)
		rt.backendDown(b)
	}
}

// backendDown is the failover trigger: every tenant placed on b flips
// to rebuilding and a re-provision goroutine races to rebuild it on a
// surviving backend. Clients see 503 + Retry-After until the rebuild
// lands; the retry layer rides through on the hint.
func (rt *Router) backendDown(b *backend) {
	rt.mFailover.Inc()
	rt.mu.Lock()
	var lost []string
	for id, e := range rt.entries {
		if e.backend == b && e.state == StateReady {
			e.state = StateRebuilding
			e.backend = nil
			lost = append(lost, id)
		}
	}
	rt.mu.Unlock()
	for _, id := range lost {
		go rt.rebuild(id)
	}
}

// backendRecovered reconciles a backend that came back: any tenant it
// still hosts that the placement map no longer assigns to it is stale
// state from before the failure (the tenant has been rebuilt elsewhere)
// and is deleted best-effort so the fleet does not leak model
// goroutines. A tenant still creating or rebuilding is left alone: its
// world on b may be the one being placed there right now, which the
// placement map names only once the build lands. A stale copy it skips
// is swept at b's next recovery.
func (rt *Router) backendRecovered(b *backend) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	targets, err := b.admin.ListTargets(ctx)
	cancel()
	if err != nil {
		return
	}
	for _, info := range targets {
		rt.mu.Lock()
		e, ok := rt.entries[info.ID]
		stale := !ok || (e.state != StateCreating && e.state != StateRebuilding &&
			(e.backend == nil || e.backend.url != b.url))
		rt.mu.Unlock()
		if stale {
			dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
			rt.deleteOnBackend(dctx, b, info.ID) //nolint:errcheck // best-effort GC
			dcancel()
		}
	}
}
