package tenant

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
)

func testMeta() *query.Meta {
	return &query.Meta{
		TableNames: []string{"a"},
		AttrNames:  []string{"a0"},
		AttrOffset: []int{0},
	}
}

func testQuery(lo float64) *query.Query {
	return &query.Query{
		Tables: []bool{true},
		Bounds: [][2]float64{{lo, 1}},
	}
}

// countTarget answers lo*3 and counts model evaluations; executes bump a
// shift added to later answers, so retraining observably changes output.
type countTarget struct {
	estimates atomic.Int64
	executes  atomic.Int64
	shift     atomic.Int64 // incremented per execute; added to estimates
}

func (c *countTarget) EstimateContext(_ context.Context, q *query.Query) (float64, error) {
	c.estimates.Add(1)
	return q.Bounds[0][0]*3 + float64(c.shift.Load()), nil
}

func (c *countTarget) ExecuteWorkload(_ context.Context, _ []*query.Query, _ []float64) error {
	c.executes.Add(1)
	c.shift.Add(1)
	return nil
}

func newTestTenant(t *testing.T, spec Spec, target ce.Target) *Tenant {
	t.Helper()
	if spec.ID == "" {
		spec.ID = "t"
	}
	tn := NewTenant(spec, target, testMeta(), Config{BatchWindow: time.Microsecond})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		tn.Drain(ctx) //nolint:errcheck // best-effort test cleanup
	})
	return tn
}

func TestEstimateCacheHitsAreBitExactAndFlushOnExecute(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{CacheSize: 8}, ct)
	ctx := context.Background()
	qs := []*query.Query{testQuery(0.25)}

	first, err := tn.Estimate(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tn.Estimate(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(first[0]) != math.Float64bits(second[0]) {
		t.Fatalf("cache hit not bit-exact: %v vs %v", first[0], second[0])
	}
	if got := ct.estimates.Load(); got != 1 {
		t.Fatalf("model evaluated %d times, want 1 (second call should hit the cache)", got)
	}
	if hits, misses, size := tn.CacheStats(); hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache stats hits=%d misses=%d size=%d, want 1/1/1", hits, misses, size)
	}

	// A retrain changes the model's answers; the flush must expose that.
	if err := tn.Execute(ctx, qs, []float64{42}); err != nil {
		t.Fatal(err)
	}
	third, err := tn.Estimate(ctx, qs)
	if err != nil {
		t.Fatal(err)
	}
	if ct.estimates.Load() != 2 {
		t.Fatalf("estimate after execute did not reach the model (cache not flushed)")
	}
	if third[0] == first[0] {
		t.Fatalf("post-retrain estimate %v equals stale pre-retrain one", third[0])
	}
}

func TestCacheGenerationGuardDropsStalePut(t *testing.T) {
	c := newEstCache(4)
	gen := c.generation()
	c.flush() // a retrain lands while an estimate is in flight
	c.put(gen, "k", 7)
	if _, ok := c.get("k"); ok {
		t.Fatal("pre-retrain estimate was cached past a flush")
	}
	c.put(c.generation(), "k", 8)
	if est, ok := c.get("k"); !ok || est != 8 {
		t.Fatalf("current-generation put not cached: %v %v", est, ok)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := newEstCache(2)
	g := c.generation()
	c.put(g, "a", 1)
	c.put(g, "b", 2)
	c.get("a") // a is now most recent
	c.put(g, "c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
}

func TestDrainRefusesNewWorkAndIsIdempotent(t *testing.T) {
	tn := NewTenant(Spec{ID: "d"}, &countTarget{}, testMeta(), Config{})
	ctx := context.Background()
	if err := tn.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := tn.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !tn.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if _, err := tn.Estimate(ctx, []*query.Query{testQuery(0.5)}); !errors.Is(err, ErrDraining) {
		t.Fatalf("estimate after drain: %v, want ErrDraining", err)
	}
}

func TestAdmitTokenBucket(t *testing.T) {
	tn := NewTenant(Spec{ID: "r"}, &countTarget{},
		testMeta(), Config{RatePerSec: 0.0001, Burst: 2})
	defer tn.Drain(context.Background()) //nolint:errcheck // test cleanup
	for i := 0; i < 2; i++ {
		if !tn.Admit("alice") {
			t.Fatalf("alice call %d rejected within burst", i)
		}
	}
	if tn.Admit("alice") {
		t.Fatal("alice admitted past her burst")
	}
	if !tn.Admit("bob") {
		t.Fatal("bob rejected on his first call (buckets not per-client)")
	}
}

func stubFactory(delay time.Duration) Factory {
	return func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error) {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		return &countTarget{}, testMeta(), nil
	}
}

func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(stubFactory(0), Config{})
	ctx := context.Background()

	if _, err := r.Create(ctx, Spec{ID: "bad id!"}); err == nil {
		t.Fatal("invalid id accepted")
	}
	if _, err := r.Create(ctx, Spec{ID: "a", Dataset: "dmv", Model: "fcn"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(ctx, Spec{ID: "a"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: %v, want ErrExists", err)
	}
	if _, err := r.Get("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost lookup: %v, want ErrNotFound", err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].Spec.ID != "a" || infos[0].State != StateReady {
		t.Fatalf("list = %+v", infos)
	}
	if err := r.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("lookup after delete: %v, want ErrNotFound", err)
	}
	if err := r.Delete(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

// TestRegistryCreateDeleteRace exercises the registry's locking under
// concurrent create/get/delete/list of overlapping ids; run with -race.
func TestRegistryCreateDeleteRace(t *testing.T) {
	r := NewRegistry(stubFactory(time.Millisecond), Config{})
	ctx := context.Background()
	const workers = 8
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("t%d", i%3) // deliberate id collisions
			for n := 0; n < 20; n++ {
				tn, err := r.Create(ctx, Spec{ID: id})
				if err == nil {
					// Use the tenant before tearing it down.
					tn.Estimate(ctx, []*query.Query{testQuery(0.5)}) //nolint:errcheck
				}
				r.Get(id) //nolint:errcheck
				r.List()
				r.Delete(ctx, id) //nolint:errcheck
			}
		}(i)
	}
	wg.Wait()
	// Whatever survived the races must still drain cleanly.
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := r.DrainAll(dctx); err != nil {
		t.Fatalf("drain after race: %v", err)
	}
}

// TestRegistryCreatePanicReleasesSlot: a panicking Factory must not
// wedge the id in "creating" — the slot is released, the panic surfaces
// as ErrCreatePanic, and the id is creatable again.
func TestRegistryCreatePanicReleasesSlot(t *testing.T) {
	boom := true
	factory := func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error) {
		if boom {
			panic("world build exploded")
		}
		return &countTarget{}, testMeta(), nil
	}
	r := NewRegistry(factory, Config{})
	ctx := context.Background()

	_, err := r.Create(ctx, Spec{ID: "p"})
	if !errors.Is(err, ErrCreatePanic) {
		t.Fatalf("create with panicking factory: %v, want ErrCreatePanic", err)
	}
	if _, err := r.Get("p"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("slot survived the panic: %v, want ErrNotFound", err)
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after panicked create, want 0", r.Len())
	}

	boom = false
	if _, err := r.Create(ctx, Spec{ID: "p"}); err != nil {
		t.Fatalf("re-create after panic: %v", err)
	}
	r.DrainAll(ctx) //nolint:errcheck // test cleanup
}

// TestRegistryQuotas pins the admission rules: a host-wide tenant cap
// and a per-owner cap, with evicted tenants still counting toward both.
func TestRegistryQuotas(t *testing.T) {
	r := NewRegistry(stubFactory(0), Config{MaxTenants: 2, MaxPerOwner: 1})
	ctx := context.Background()

	if _, err := r.Create(ctx, Spec{ID: "a", Owner: "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(ctx, Spec{ID: "a2", Owner: "alice"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("owner over quota: %v, want ErrQuota", err)
	}
	if _, err := r.Create(ctx, Spec{ID: "b", Owner: "bob"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(ctx, Spec{ID: "c", Owner: "carol"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("host over cap: %v, want ErrQuota", err)
	}

	// Eviction spills live state but keeps the id and owner slot: the
	// caps must still hold.
	if got := r.EvictIdle(ctx, 0); len(got) != 2 {
		t.Fatalf("EvictIdle = %v, want both tenants", got)
	}
	if _, err := r.Create(ctx, Spec{ID: "c", Owner: "carol"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("host cap ignored evicted tenants: %v, want ErrQuota", err)
	}
	if _, err := r.Create(ctx, Spec{ID: "a2", Owner: "alice"}); !errors.Is(err, ErrQuota) {
		t.Fatalf("owner cap ignored evicted tenants: %v, want ErrQuota", err)
	}

	// Deleting an evicted tenant frees its slot for a new create.
	if err := r.Delete(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create(ctx, Spec{ID: "a2", Owner: "alice"}); err != nil {
		t.Fatalf("create after freeing quota: %v", err)
	}
	r.DrainAll(ctx) //nolint:errcheck // test cleanup
}

// TestRegistryEvictAndRevive: an idle tenant's live state spills to a
// spec, lookups answer ErrEvicted, and Revive rebuilds a working tenant.
func TestRegistryEvictAndRevive(t *testing.T) {
	r := NewRegistry(stubFactory(0), Config{})
	ctx := context.Background()
	if _, err := r.Create(ctx, Spec{ID: "idle", Dataset: "dmv", Model: "fcn"}); err != nil {
		t.Fatal(err)
	}
	// An active tenant must not be evicted.
	if got := r.EvictIdle(ctx, time.Hour); len(got) != 0 {
		t.Fatalf("EvictIdle(1h) evicted fresh tenant: %v", got)
	}
	got := r.EvictIdle(ctx, 0)
	if len(got) != 1 || got[0] != "idle" {
		t.Fatalf("EvictIdle = %v, want [idle]", got)
	}
	if _, err := r.Get("idle"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("get of evicted tenant: %v, want ErrEvicted", err)
	}
	infos := r.List()
	if len(infos) != 1 || infos[0].State != StateEvicted {
		t.Fatalf("list after evict = %+v", infos)
	}
	if _, err := r.Create(ctx, Spec{ID: "idle"}); !errors.Is(err, ErrExists) {
		t.Fatalf("create over evicted id: %v, want ErrExists", err)
	}

	tn, err := r.Revive(ctx, "idle")
	if err != nil {
		t.Fatal(err)
	}
	if tn.Spec().Dataset != "dmv" || tn.Spec().Model != "fcn" {
		t.Fatalf("revived spec = %+v, want the spilled one", tn.Spec())
	}
	if _, err := tn.Estimate(ctx, []*query.Query{testQuery(0.5)}); err != nil {
		t.Fatalf("estimate on revived tenant: %v", err)
	}
	// Reviving an already-live tenant hands back the live one.
	again, err := r.Revive(ctx, "idle")
	if err != nil || again != tn {
		t.Fatalf("second revive = %v, %v, want the live tenant", again, err)
	}
	if _, err := r.Revive(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("revive of unknown id: %v, want ErrNotFound", err)
	}
	r.DrainAll(ctx) //nolint:errcheck // test cleanup
}

// TestRegistryReviveFailureRespills: a failed revival puts the spec back
// so a later request can retry.
func TestRegistryReviveFailureRespills(t *testing.T) {
	fail := false
	factory := func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error) {
		if fail {
			return nil, nil, errors.New("transient build failure")
		}
		return &countTarget{}, testMeta(), nil
	}
	r := NewRegistry(factory, Config{})
	ctx := context.Background()
	if _, err := r.Create(ctx, Spec{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if got := r.EvictIdle(ctx, 0); len(got) != 1 {
		t.Fatalf("EvictIdle = %v", got)
	}
	fail = true
	if _, err := r.Revive(ctx, "x"); err == nil {
		t.Fatal("revive succeeded with failing factory")
	}
	if _, err := r.Get("x"); !errors.Is(err, ErrEvicted) {
		t.Fatalf("spec not re-spilled after failed revive: %v, want ErrEvicted", err)
	}
	fail = false
	if _, err := r.Revive(ctx, "x"); err != nil {
		t.Fatalf("retry revive: %v", err)
	}
	r.DrainAll(ctx) //nolint:errcheck // test cleanup
}

// TestRegistryDrainDuringCreateRace: a create whose factory completes
// after DrainAll began must NOT register a live tenant — its model
// goroutine would outlive the shutdown. Run with -race.
func TestRegistryDrainDuringCreateRace(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	factory := func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error) {
		once.Do(func() { close(started) })
		<-release
		return &countTarget{}, testMeta(), nil
	}
	r := NewRegistry(factory, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := r.Create(context.Background(), Spec{ID: "late"})
		done <- err
	}()
	<-started

	drained := make(chan error, 1)
	go func() { drained <- r.DrainAll(context.Background()) }()
	// DrainAll must not block on the in-flight create (its slot has no
	// tenant yet).
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("DrainAll: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DrainAll blocked on an in-flight create")
	}

	close(release)
	if err := <-done; !errors.Is(err, ErrDraining) {
		t.Fatalf("create completing after drain: %v, want ErrDraining", err)
	}
	// The discarded create must leave nothing behind.
	if _, err := r.Get("late"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("late create left a slot: %v, want ErrNotFound", err)
	}
	if _, err := r.Create(context.Background(), Spec{ID: "post"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create after drain: %v, want ErrDraining", err)
	}
}

// TestRegistryDeleteDuringEstimateRace: deletes racing in-flight
// estimates must either serve or fail cleanly (ErrDraining/NotFound) and
// the drain must wait for queued work. Run with -race.
func TestRegistryDeleteDuringEstimateRace(t *testing.T) {
	r := NewRegistry(stubFactory(0), Config{BatchWindow: time.Microsecond})
	ctx := context.Background()
	const rounds = 10
	for n := 0; n < rounds; n++ {
		tn, err := r.Create(ctx, Spec{ID: "victim"})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 10; k++ {
					_, err := tn.Estimate(ctx, []*query.Query{testQuery(0.5)})
					switch {
					case err == nil,
						errors.Is(err, ErrDraining),
						errors.Is(err, ErrQueueFull):
					default:
						t.Errorf("estimate during delete: %v", err)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.Delete(ctx, "victim"); err != nil && !errors.Is(err, ErrNotFound) {
				t.Errorf("delete: %v", err)
			}
		}()
		wg.Wait()
	}
}

// TestRegistryCreateIsVisibleWhileProvisioning: a slow create lists as
// "creating", fails duplicate creates fast, and Get answers ErrNotReady.
func TestRegistryCreateIsVisibleWhileProvisioning(t *testing.T) {
	release := make(chan struct{})
	factory := func(ctx context.Context, spec Spec) (ce.Target, *query.Meta, error) {
		<-release
		return &countTarget{}, testMeta(), nil
	}
	r := NewRegistry(factory, Config{})
	done := make(chan error, 1)
	go func() {
		_, err := r.Create(context.Background(), Spec{ID: "slow"})
		done <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for r.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Get("slow"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("get during provisioning: %v, want ErrNotReady", err)
	}
	if _, err := r.Create(context.Background(), Spec{ID: "slow"}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create during provisioning: %v, want ErrExists", err)
	}
	if infos := r.List(); len(infos) != 1 || infos[0].State != StateCreating {
		t.Fatalf("list during provisioning = %+v", infos)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("slow"); err != nil {
		t.Fatalf("get after provisioning: %v", err)
	}
	r.DrainAll(context.Background()) //nolint:errcheck // test cleanup
}

// stallWriter sleeps on every write. A tracer over it stalls whichever
// span End happens to flush the tracer's buffer — a slow trace sink, as
// a real file or pipe under load can be.
type stallWriter struct{}

func (stallWriter) Write(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return len(p), nil
}

// TestReadYourWritesAfterExecute pins the read-your-writes contract: an
// estimate issued after Execute returned reflects that retrain, even
// while another client keeps re-caching the same query. Execute runs
// traced into a stalling sink, so the model goroutine sometimes stalls
// right after the ack, where a cache flush that came after the ack let
// a pre-retrain estimate through.
func TestReadYourWritesAfterExecute(t *testing.T) {
	ct := &countTarget{}
	tn := newTestTenant(t, Spec{CacheSize: 8}, ct)
	qs := []*query.Query{testQuery(0.25)}
	traced := obs.NewContext(context.Background(), &obs.Telemetry{Tracer: obs.NewTracer(stallWriter{})})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tn.Estimate(context.Background(), qs) //nolint:errcheck // only keeps the entry hot
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for round := 1; round <= 6000; round++ {
		if err := tn.Execute(traced, qs, []float64{1}); err != nil {
			t.Fatal(err)
		}
		got, err := tn.Estimate(context.Background(), qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := 0.75 + float64(round); got[0] != want {
			t.Fatalf("round %d: estimate after an acked execute = %v, want the post-retrain %v", round, got[0], want)
		}
	}
}
