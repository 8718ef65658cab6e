// Compose tests: the injector wrapped around a *remote* target over a
// real HTTP wire. These pin the layering contract — faults are injected
// client-side before the wire, the transport's own errors pass through
// untouched, and exactly one layer (the retry policy) retries — so the
// obs counters stay single-counted: pace_retry_waits_total is the only
// retry tally and pace_faults_*_total count injected faults alone.
package faults_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/faults"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/resilience"
	"pace/internal/targetserver"
)

// countingTarget is the in-process estimator behind the test server: a
// constant model that tallies how much traffic actually crossed the wire.
type countingTarget struct {
	estimates atomic.Int64
	executed  atomic.Int64
}

func (t *countingTarget) EstimateContext(context.Context, *query.Query) (float64, error) {
	t.estimates.Add(1)
	return 42, nil
}

func (t *countingTarget) ExecuteWorkload(_ context.Context, qs []*query.Query, _ []float64) error {
	t.executed.Add(int64(len(qs)))
	return nil
}

func testMeta() *query.Meta {
	return &query.Meta{
		TableNames: []string{"a", "b"},
		AttrNames:  []string{"a0", "a1", "b0"},
		AttrOffset: []int{0, 2, 3},
	}
}

func testQuery(m *query.Meta) *query.Query {
	q := query.New(m)
	q.Tables[0] = true
	q.Bounds[0] = [2]float64{0.25, 0.75}
	return q
}

// startRemote stands up a paced-equivalent server around bb and dials a
// RemoteTarget at it; cleanup tears both down.
func startRemote(t *testing.T, bb ce.Target) *remote.RemoteTarget {
	t.Helper()
	srv := targetserver.New(bb, testMeta(), targetserver.Config{})
	hs := httptest.NewServer(srv.Handler())
	rc, err := remote.NewClient(hs.URL, remote.Options{CoalesceWindow: 0, ClientID: "compose-test"})
	if err != nil {
		t.Fatalf("remote.NewClient: %v", err)
	}
	rt := rc.Target("")
	t.Cleanup(func() {
		rt.Close()
		hs.Close()
		srv.Close()
	})
	return rt
}

// TestInjectorOverRemoteTargetSingleCountsRetries drives estimates
// through the full production stack — retry policy over injector over
// RemoteTarget over HTTP over targetserver — and checks every layer's
// ledger against the retry layer's ground truth.
func TestInjectorOverRemoteTargetSingleCountsRetries(t *testing.T) {
	bb := &countingTarget{}
	rt := startRemote(t, bb)

	reg := obs.NewRegistry()
	inj := faults.NewInjector(faults.Flaky(), 7).Instrument(reg)
	wrapped := inj.WrapTarget(rt)

	pol := resilience.RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Microsecond,
		MaxDelay:    time.Microsecond,
		Retryable: func(err error) bool {
			return !errors.Is(err, ce.ErrInvalidQuery)
		},
	}
	ctx := obs.NewContext(context.Background(), &obs.Telemetry{Reg: reg})
	q := testQuery(testMeta())

	const ops = 200
	var totalAttempts, failedOps int64
	for i := 0; i < ops; i++ {
		attempts, err := pol.Do(ctx, nil, func(ctx context.Context) error {
			est, err := wrapped.EstimateContext(ctx, q)
			if err == nil && est != 42 {
				t.Fatalf("estimate = %v, want 42", est)
			}
			return err
		})
		totalAttempts += int64(attempts)
		if err != nil {
			failedOps++
			if !faults.IsTransient(err) {
				t.Fatalf("op %d failed with non-injected error: %v", i, err)
			}
		}
	}

	c := inj.Counters()
	// Every retry-layer attempt passes the injector exactly once: the
	// remote client must not retry internally (that would show up here
	// as Calls > attempts).
	if c.Calls != totalAttempts {
		t.Errorf("injector saw %d calls, retry layer made %d attempts", c.Calls, totalAttempts)
	}
	// Faulted attempts die client-side; only the healthy remainder
	// crosses the wire, and each crosses it exactly once.
	wantWire := totalAttempts - c.Failures()
	if got := bb.estimates.Load(); got != wantWire {
		t.Errorf("server served %d estimates, want %d (attempts %d - injected failures %d)",
			got, wantWire, totalAttempts, c.Failures())
	}
	// The retry ledger: Do waits once per extra attempt, so the single
	// retry counter must equal attempts beyond each op's first.
	if got, want := reg.Counter("pace_retry_waits_total").Value(), totalAttempts-ops; got != want {
		t.Errorf("pace_retry_waits_total = %d, want %d", got, want)
	}
	// Injector registry counters mirror its own tallies (and nothing
	// else increments them).
	if got := reg.Counter("pace_faults_transients_total").Value(); got != c.Transients {
		t.Errorf("pace_faults_transients_total = %d, want %d", got, c.Transients)
	}
	if got := reg.Counter("pace_faults_drops_total").Value(); got != c.Drops {
		t.Errorf("pace_faults_drops_total = %d, want %d", got, c.Drops)
	}
	if c.Failures() == 0 {
		t.Error("flaky profile injected no failures in 200+ attempts; schedule broken")
	}
}

// TestInjectorOverRemoteExecuteDropsPoisonOnce checks the update path:
// per-query faults are decided before the wire, the surviving batch is
// forwarded in one remote call, and the server applies each survivor
// exactly once.
func TestInjectorOverRemoteExecuteDropsPoisonOnce(t *testing.T) {
	bb := &countingTarget{}
	rt := startRemote(t, bb)

	inj := faults.NewInjector(faults.Lossy(), 3)
	wrapped := inj.WrapTarget(rt)

	m := testMeta()
	const n = 100
	qs := make([]*query.Query, n)
	cards := make([]float64, n)
	for i := range qs {
		qs[i] = testQuery(m)
		cards[i] = float64(i + 1)
	}
	if err := wrapped.ExecuteWorkload(context.Background(), qs, cards); err != nil {
		t.Fatalf("ExecuteWorkload: %v", err)
	}

	c := inj.Counters()
	want := int64(n) - c.Failures()
	if got := bb.executed.Load(); got != want {
		t.Errorf("server executed %d queries, want %d (%d offered - %d lost in transit)",
			got, want, n, c.Failures())
	}
	if c.Failures() == 0 || c.Failures() == n {
		t.Errorf("lossy profile lost %d/%d queries; want a strict subset", c.Failures(), n)
	}
}

// TestWrapTargetUnwrap pins the accessor owners use to reach the
// transport underneath the fault wrapper (Close, Stats).
func TestWrapTargetUnwrap(t *testing.T) {
	bb := &countingTarget{}
	rt := startRemote(t, bb)
	wrapped := faults.NewInjector(faults.None(), 1).WrapTarget(rt)
	u, ok := wrapped.(interface{ Unwrap() ce.Target })
	if !ok {
		t.Fatal("fault-wrapped target does not expose Unwrap")
	}
	if u.Unwrap() != ce.Target(rt) {
		t.Error("Unwrap did not return the wrapped remote target")
	}
}
