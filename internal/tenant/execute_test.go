package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/query"
)

// oneQuery and cards build the minimal execute payloads these tests
// send.
func oneQuery(lo float64) []*query.Query { return []*query.Query{testQuery(lo)} }

func cards(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 10
	}
	return out
}

// TestExecuteTokenDedupesAndAppliesOnce: repeats of an applied token are
// acked without a retrain, and a new token applies.
func TestExecuteTokenDedupesAndAppliesOnce(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := tn.Execute(ctx, "tok", oneQuery(0.2), cards(1)); err != nil {
			t.Fatalf("execute %d: %v", i, err)
		}
	}
	if n := ct.executes.Load(); n != 1 {
		t.Fatalf("model retrained %d times for one token, want 1", n)
	}
	if err := tn.Execute(ctx, "tok-2", oneQuery(0.2), cards(1)); err != nil {
		t.Fatal(err)
	}
	if n := ct.executes.Load(); n != 2 {
		t.Fatalf("model retrained %d times after a second token, want 2", n)
	}
}

// TestExecuteEmptyTokenNeverDedupes: an execute without a token (raw
// HTTP, older clients) applies every time.
func TestExecuteEmptyTokenNeverDedupes(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)
	for i := 0; i < 3; i++ {
		if err := tn.Execute(context.Background(), "", oneQuery(0.1), cards(1)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ct.executes.Load(); n != 3 {
		t.Fatalf("model retrained %d times for 3 untokened executes, want 3", n)
	}
}

// TestExecuteTokenSetEvictsFIFO: the tenant remembers only its last
// maxAppliedTokens tokens; the oldest is forgotten first.
func TestExecuteTokenSetEvictsFIFO(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)
	ctx := context.Background()
	for i := 0; i <= maxAppliedTokens; i++ {
		if err := tn.Execute(ctx, fmt.Sprintf("tok-%d", i), oneQuery(0.3), cards(1)); err != nil {
			t.Fatal(err)
		}
	}
	applied := ct.executes.Load()
	if err := tn.Execute(ctx, "tok-1", oneQuery(0.3), cards(1)); err != nil {
		t.Fatal(err)
	}
	if ct.executes.Load() != applied {
		t.Fatal("a token inside the window was applied again")
	}
	if err := tn.Execute(ctx, "tok-0", oneQuery(0.3), cards(1)); err != nil {
		t.Fatal(err)
	}
	if ct.executes.Load() != applied+1 {
		t.Fatal("the evicted oldest token was still deduplicated")
	}
}

// blockTarget parks every ExecuteWorkload on release, so the execute
// queue can be filled deterministically.
type blockTarget struct {
	countTarget
	started atomic.Int64 // executes that reached the model
	release chan struct{}
}

func (b *blockTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	b.started.Add(1)
	<-b.release
	return b.countTarget.ExecuteWorkload(ctx, qs, cards)
}

// newBlockedTenant serves bt with a depth-1 execute queue; unblock
// releases every execute, now and later.
func newBlockedTenant(t *testing.T, bt *blockTarget) (tn *Tenant, unblock func()) {
	t.Helper()
	var once sync.Once
	unblock = func() { once.Do(func() { close(bt.release) }) }
	tn = NewTenant(Spec{ID: "t"}, bt, testMeta(), Config{ExecQueueDepth: 1})
	t.Cleanup(func() {
		unblock()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tn.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return tn, unblock
}

// TestExecuteShedRecordsNoToken: an execute shed by a full queue was not
// applied, so its retry with the same token must apply.
func TestExecuteShedRecordsNoToken(t *testing.T) {
	bt := &blockTarget{release: make(chan struct{})}
	tn, unblock := newBlockedTenant(t, bt)

	// Fill the model goroutine and the depth-1 queue, then overflow.
	var wg sync.WaitGroup
	shed := ""
	for i := 0; i < 8 && shed == ""; i++ {
		tok := fmt.Sprintf("tok-%d", i)
		wg.Add(1)
		errc := make(chan error, 1)
		go func() {
			defer wg.Done()
			errc <- tn.Execute(context.Background(), tok, oneQuery(0.3), cards(1))
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("%s: %v, want ErrQueueFull", tok, err)
			}
			shed = tok
		case <-time.After(50 * time.Millisecond): // queued behind the block
		}
	}
	if shed == "" {
		t.Fatal("queue never shed; cannot exercise the retry path")
	}
	unblock()
	wg.Wait()
	before := bt.executes.Load()
	if err := tn.Execute(context.Background(), shed, oneQuery(0.3), cards(1)); err != nil {
		t.Fatal(err)
	}
	if bt.executes.Load() != before+1 {
		t.Fatal("the retry of a shed execute was acked without a retrain")
	}
}

// failOnceTarget fails its first execute and applies the rest.
type failOnceTarget struct {
	countTarget
	once sync.Once
}

func (f *failOnceTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	failed := false
	f.once.Do(func() { failed = true })
	if failed {
		return errors.New("model exploded")
	}
	return f.countTarget.ExecuteWorkload(ctx, qs, cards)
}

// TestExecuteFailureRecordsNoToken: a retrain that failed records no
// token, so retrying the call applies it.
func TestExecuteFailureRecordsNoToken(t *testing.T) {
	ft := &failOnceTarget{}
	tn := newTestTenant(t, Spec{}, ft)
	if err := tn.Execute(context.Background(), "tok", oneQuery(0.4), cards(1)); err == nil {
		t.Fatal("the failing retrain was acked")
	}
	if err := tn.Execute(context.Background(), "tok", oneQuery(0.4), cards(1)); err != nil {
		t.Fatal(err)
	}
	if n := ft.executes.Load(); n != 1 {
		t.Fatalf("model applied %d times, want 1 (the retry)", n)
	}
}

// TestExecuteRunsAfterCallerTimesOut: a queued execute whose caller gave
// up still applies, and the caller's retry is acked without a second
// retrain.
func TestExecuteRunsAfterCallerTimesOut(t *testing.T) {
	bt := &blockTarget{release: make(chan struct{})}
	tn, unblock := newBlockedTenant(t, bt)

	first := make(chan error, 1)
	go func() { first <- tn.Execute(context.Background(), "tok-a", oneQuery(0.5), cards(1)) }()
	for bt.started.Load() == 0 { // the model goroutine holds tok-a
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := tn.Execute(ctx, "tok-b", oneQuery(0.5), cards(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("timed-out execute: %v, want DeadlineExceeded", err)
	}
	unblock()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := tn.Execute(context.Background(), "tok-b", oneQuery(0.5), cards(1)); err != nil {
		t.Fatal(err)
	}
	if n := bt.executes.Load(); n != 2 {
		t.Fatalf("model applied %d times, want 2 (tok-a, then tok-b once)", n)
	}
}

// TestExecutionRefusedWhileDraining: a drained tenant refuses executes
// and retrains nothing.
func TestExecutionRefusedWhileDraining(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{}, ct)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tn.Execute(context.Background(), "tok", oneQuery(0.1), cards(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("execute while draining: %v, want ErrDraining", err)
	}
	if n := ct.executes.Load(); n != 0 {
		t.Fatalf("drained tenant retrained %d times", n)
	}
}
