package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"pace/internal/ce"
	"pace/internal/experiments"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
	"pace/internal/workload"
)

// The served victim: one dmv/fcn tenant of the quick experiments profile,
// world seed pinned so every run serves the same model and only the
// traffic follows --seed.
const (
	serveDataset = "dmv"
	serveModel   = "fcn"
	worldSeed    = 1
	tenantID     = "bench"
	clientID     = "perfbench" // the one client identity of every serve run
)

// serveShape is what distinguishes the two serving workloads.
type serveShape struct {
	router    bool // client → pacerouter → paced, else client → paced
	cacheSize int  // tenant estimate-cache entries (0 = off)
	repeat    bool // estimates drawn uniformly from a replay pool; else every arrival a new query
	writes    bool // execute (retrain) batches beside the estimates
}

func shapeOf(workload string) serveShape {
	if workload == "serve-read" {
		return serveShape{router: true}
	}
	return serveShape{cacheSize: cacheSize, repeat: true, writes: true}
}

// writeMix is serve-mixed's execute stream, derived from one round of the
// quick profile's incremental-training experiment (experiments.
// RunIncremental, the paper's Figure 14). Each round the victim takes two
// executes, the round's update of TrainQueries/5 labeled queries and the
// attack's NumPoison poison queries, and answers TrainQueries
// surrogate-acquisition estimates plus TestQueries evaluation estimates.
// Batches alternate between the two sizes. On the fixed-rate rungs the
// stream runs at the rate that keeps the round's proportion at the
// reference rung; the saturation rung keeps the proportion itself.
func writeMix() (sizes []int, readsPerExec int) {
	c := experiments.Config{}.WithDefaults()
	return []int{c.TrainQueries / 5, c.NumPoison}, (c.TrainQueries + c.TestQueries) / 2
}

// listener is one in-process HTTP server on loopback TCP, its handler
// wrapped for outside accounting.
type listener struct {
	srv  *http.Server
	done chan struct{}
	url  string
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, done: make(chan struct{}), url: "http://" + ln.Addr().String()}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	return l, nil
}

func (l *listener) close(ctx context.Context) error {
	err := l.srv.Shutdown(ctx)
	<-l.done
	return err
}

// cappedClient bounds a hop's connections to nproc, so the benchmark
// never opens more parallel streams than the machine has cores.
func cappedClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// stack is one booted serving path: paced (and pacerouter for
// serve-read) on loopback, the victim provisioned through the admin API,
// and the benchmark's client.
type stack struct {
	factory  *timedFactory
	srv      *targetserver.Server
	srvL     *listener
	srvCount *countingHandler
	rt       *router.Router
	rtL      *listener
	rtCount  *countingHandler
	client   *remote.Client
	est      *remote.RemoteTarget // estimate traffic
	exec     *remote.RemoteTarget // execute traffic (own stats)

	provision time.Duration // the admin create call: world build, victim training, tenant ready
}

func bootStack(ctx context.Context, shape serveShape, o opts, tel *obs.Telemetry) (*stack, error) {
	s := &stack{factory: &timedFactory{inner: experiments.TenantFactory(experiments.Config{Seed: worldSeed})}}
	scfg := targetserver.Config{Factory: s.factory.build, Telemetry: tel, Codecs: []string{"binary", "json"}}
	// RatePerSec stays 0: the per-client token bucket is off.
	s.srv = targetserver.NewMulti(tenant.NewRegistry(s.factory.build, scfg.TenantConfig()), scfg)
	s.srvCount = &countingHandler{next: s.srv.Handler()}
	var err error
	if s.srvL, err = listen(s.srvCount); err != nil {
		s.close(ctx)
		return nil, err
	}
	front := s.srvL.url
	if shape.router {
		s.rt, err = router.New(router.Config{Backends: []string{s.srvL.url}, Client: cappedClient(o.conns), Telemetry: tel})
		if err != nil {
			s.close(ctx)
			return nil, err
		}
		s.rtCount = &countingHandler{next: s.rt.Handler()}
		if s.rtL, err = listen(s.rtCount); err != nil {
			s.close(ctx)
			return nil, err
		}
		front = s.rtL.url
	}
	s.client, err = remote.NewClient(front, remote.Options{
		ClientID:       clientID,
		Codec:          "binary",
		CoalesceWindow: coalesce,
		Client:         cappedClient(o.conns),
	})
	if err != nil {
		s.close(ctx)
		return nil, err
	}
	p0 := time.Now()
	if _, err := s.client.Admin().CreateTarget(ctx, wire.TargetSpec{
		ID: tenantID, Dataset: serveDataset, Model: serveModel,
		Seed: worldSeed, SeedOffset: 1, CacheSize: shape.cacheSize,
	}); err != nil {
		s.close(ctx)
		return nil, fmt.Errorf("provisioning the victim: %w", err)
	}
	s.provision = time.Since(p0)
	s.est = s.client.Target(tenantID)
	s.exec = s.client.Target(tenantID)
	return s, nil
}

// close stops the stack front to back and waits for every server
// goroutine it started.
func (s *stack) close(ctx context.Context) error {
	var errs []error
	if s.client != nil {
		s.client.Close()
	}
	if s.rtL != nil {
		errs = append(errs, s.rtL.close(ctx))
	}
	if s.rt != nil {
		errs = append(errs, s.rt.Shutdown(ctx))
	}
	if s.srvL != nil {
		errs = append(errs, s.srvL.close(ctx))
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Shutdown(ctx))
	}
	return errors.Join(errs...)
}

// Seed-stream offsets: each input draws from its own stream of --seed.
const (
	seedArrivals = 1000003
	seedPool     = 2000003
	seedExecs    = 3000017
	seedProbe    = 4000037
)

// block is one slice of the ladder: blockLen of Poisson arrivals at one
// rung's rate or, on the saturation rung, blockLen of a closed loop. The
// ladder cycles through its rungs block by block, so a spell of machine
// noise lands on every rung alike instead of on one.
type block struct {
	rung    int
	due     []time.Duration // estimate arrivals; nil on the saturation rung
	sat     int             // saturation rung: the most estimates it may fire
	execDue []time.Duration // execute arrivals (serve-mixed)
}

// saturated is the rate of the ladder's saturation rung: no fixed rate,
// but satInFlight estimates kept outstanding, so the stack runs as fast
// as it can with a bounded backlog.
var saturated = math.Inf(1)

// serveInputs plan one run's traffic from --seed. Arrival times are drawn
// up front; queries and execute batches are drawn block by block, just
// before each block runs, so the run holds one block's inputs at a time
// and drawing them is never timed.
type serveInputs struct {
	shape  serveShape
	blocks []block
	twin   *ce.BlackBox        // in-process victim built from the tenant's spec
	qgen   *workload.Generator // serve-read: a fresh query per arrival
	pool   []*query.Query      // serve-mixed: the replay pool
	pick   *rand.Rand          // serve-mixed: uniform draws over the pool
	egen   *workload.Generator // serve-mixed: execute batches
	sizes  []int               // serve-mixed: execute batch sizes, in turn
	execs  int                 // execute batches drawn so far
	probe  []*query.Query      // post-run check queries (serve-mixed)
}

func makeInputs(w *experiments.World, shape serveShape, twin *ce.BlackBox, rates []float64, refQPS float64, rounds int, seed int64) *serveInputs {
	in := &serveInputs{shape: shape, twin: twin}
	var perExec int
	if shape.writes {
		in.sizes, perExec = writeMix()
	}
	arr := rand.New(rand.NewSource(seed*seedArrivals + 1))
	ex := rand.New(rand.NewSource(seed*seedExecs + 4))
	top := 0.0
	for _, rate := range rates {
		if rate != saturated {
			top = max(top, rate)
		}
	}
	for round := 0; round < rounds; round++ {
		for r, rate := range rates {
			if rate != saturated {
				b := block{rung: r, due: poissonDue(arr, rate, blockLen)}
				if shape.writes {
					b.execDue = poissonDue(ex, refQPS/float64(perExec), blockLen)
				}
				in.blocks = append(in.blocks, b)
				continue
			}
			// A fixed amount of work, a multiple of what the top fixed rate
			// offers in a block: the block ends when it is done, or after
			// blockLen. serve-mixed's executes, in proportion, take most of
			// its block, so it gets fewer estimates.
			headroom := satReadHeadroom
			if shape.writes {
				headroom = satMixedHeadroom
			}
			for k := 0; k < satBlocks; k++ {
				b := block{rung: r, sat: int(headroom * top * blockLen.Seconds())}
				if shape.writes {
					// One execute per perExec estimates (see windows).
					b.execDue = make([]time.Duration, b.sat/perExec)
				}
				in.blocks = append(in.blocks, b)
			}
		}
	}
	gen := w.WGen.WithRng(rand.New(rand.NewSource(seed*seedPool + 2)))
	if shape.repeat {
		in.pool = make([]*query.Query, poolSize)
		for i := range in.pool {
			in.pool[i] = gen.RandomQuery()
		}
		in.pick = rand.New(rand.NewSource(seed*seedPool + 3))
	} else {
		in.qgen = gen
	}
	if shape.writes {
		in.egen = w.WGen.WithRng(rand.New(rand.NewSource(seed*seedExecs + 5)))
		pgen := w.WGen.WithRng(rand.New(rand.NewSource(seed*seedProbe + 6)))
		for i := 0; i < 256; i++ {
			in.probe = append(in.probe, pgen.RandomQuery())
		}
	}
	return in
}

// blockInputs are one block's queries and execute batches, and the
// estimates served for them.
type blockInputs struct {
	qs     []*query.Query
	served []uint64 // estimate bits per fired arrival
	execs  [][]workload.Labeled
}

// draw generates the next block's inputs.
func (in *serveInputs) draw(b block) blockInputs {
	n := len(b.due) + b.sat
	bi := blockInputs{qs: make([]*query.Query, n), served: make([]uint64, n)}
	for i := range bi.qs {
		if in.shape.repeat {
			bi.qs[i] = in.pool[in.pick.Intn(len(in.pool))]
		} else {
			bi.qs[i] = in.qgen.RandomQuery()
		}
	}
	for range b.execDue {
		bi.execs = append(bi.execs, in.egen.Random(in.sizes[in.execs%len(in.sizes)]))
		in.execs++
	}
	return bi
}

// blockResult is one block's bookings and how much CPU the machine had
// stolen while it ran.
type blockResult struct {
	lat     []float64 // ms, per fired arrival; +Inf for a failed one
	late    []float64 // ms, per fired arrival
	failed  int       // fired estimates that failed
	dropped int       // planned arrivals the driver did not fire
	span    float64   // s, from the block's start until its last estimate and execute finished
	steal   float64   // share of the machine's CPU time stolen during the block
	exec    []outcome
}

// rungResult is one ladder rung's outcome. Its percentiles pool the
// calmer half of its blocks: those whose stolen CPU share is at most the
// rung's median, so spells of steal, common on a shared VM, decide no
// rung. Counts cover every block.
//
// The saturation rung's rate is the median over all its blocks instead: a
// busy neighbour on a shared host slows the cores without stealing them,
// so the steal filter cannot tell its blocks apart. benchServe scales it
// to the reference host's speed (hostspeed.go).
type rungResult struct {
	rate               float64
	n, failed, dropped int
	p50, p90, p99      float64   // ms
	goodput            float64   // completed estimates per second over the blocks used (see above)
	late               []float64 // ms, the generator's lateness over the blocks used
	exec               []outcome // execute bookings over the blocks used
	steal              float64   // median stolen CPU share over the rung's blocks
	ok                 bool      // p99 within the limit, nothing failed or dropped
}

func rungOf(rate float64, blocks []blockResult, limitMS float64) rungResult {
	r := rungResult{rate: rate}
	steals := make([]float64, len(blocks))
	all := make([]float64, len(blocks))
	for i, b := range blocks {
		r.n += len(b.lat)
		r.failed += b.failed
		r.dropped += b.dropped
		steals[i] = b.steal
		all[i] = float64(len(b.lat)-b.failed) / b.span
	}
	r.steal = median(steals)
	var lat, rates []float64
	for _, b := range blocks {
		if b.steal > r.steal {
			continue
		}
		lat = append(lat, b.lat...)
		r.late = append(r.late, b.late...)
		r.exec = append(r.exec, b.exec...)
		rates = append(rates, float64(len(b.lat)-b.failed)/b.span)
	}
	r.goodput = median(rates)
	if rate == saturated {
		r.goodput = median(all)
	}
	r.p50, r.p90, r.p99 = quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99)
	r.ok = r.failed == 0 && r.dropped == 0 && r.p99 <= limitMS
	return r
}

// serveResult gathers everything one serve run measured.
type serveResult struct {
	rungs      []rungResult
	lateP99    float64
	steal      float64 // median stolen CPU share over every block
	mismatches int64   // served estimates that differ from the twin
	errs       []error // failures that are not overload
	attempted  int
	failed     int
}

// overloaded reports whether a failed estimate is the stack refusing or
// timing out under load, which makes its rung miss the limit, rather
// than a fault, which fails the run.
func overloaded(err error) bool {
	return errors.Is(err, remote.ErrOverloaded) || errors.Is(err, context.DeadlineExceeded)
}

// driveServe runs the ladder (and, beside it, the execute lane) against a
// booted stack and checks the answers. After each block, outside its
// timing, the twin applies the block's executes in the lane's order, so
// it stays the model the tenant should be serving.
//
// mem, when set, samples the stack's memory over the fixed-rate blocks
// only: it pauses over each saturation block, whose pre-drawn arrivals
// are the benchmark's memory, and resumes once their garbage is
// returned to the system.
func driveServe(ctx context.Context, st *stack, in *serveInputs, rates []float64, o opts, tel *obs.Telemetry, mem *rssWatch) (*serveResult, error) {
	ctx = obs.NewContext(ctx, tel)
	res := &serveResult{}
	perRung := make([][]blockResult, len(rates))
	var steals []float64
	for _, b := range in.blocks {
		mem.pause(b.sat > 0)
		bi := in.draw(b)
		execute := func(ctx context.Context, i int) error {
			batch := bi.execs[i]
			return st.exec.ExecuteWorkload(ctx, workload.Queries(batch), experiments.Cards(batch))
		}
		fire := func(ctx context.Context, i int) error {
			est, err := st.est.EstimateContext(ctx, bi.qs[i])
			bi.served[i] = math.Float64bits(est)
			return err
		}
		if b.sat > 0 {
			runtime.GC() // the earlier blocks' garbage is not this block's work
		}
		if b.sat > 0 {
			probeHost()
		}
		steal0, _ := cpuClock()
		t0 := time.Now()
		var out, execOut []outcome
		switch {
		case b.sat > 0 && len(b.execDue) > 0:
			out, execOut = windows(ctx, satInFlight, b.sat, len(b.execDue), blockLen, execute, fire)
		case b.sat > 0:
			out = closedLoop(ctx, satInFlight, b.sat, blockLen, fire)
		default:
			execDone := make(chan []outcome, 1)
			go func() { execDone <- serialLane(ctx, b.execDue, execute) }()
			out = openLoop(ctx, b.due, fire)
			execOut = <-execDone
		}
		br := blockResult{exec: execOut}
		br.span = time.Since(t0).Seconds()
		steal1, _ := cpuClock()
		br.steal = (steal1 - steal0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
		if b.sat > 0 {
			probeHost()
		}
		steals = append(steals, br.steal)
		for _, oc := range out {
			switch {
			case errors.Is(oc.err, errDropped):
				br.dropped++
				continue
			case oc.err != nil:
				br.failed++
				br.lat = append(br.lat, math.Inf(1))
				if !overloaded(oc.err) {
					res.errs = append(res.errs, oc.err)
				}
			default:
				br.lat = append(br.lat, ms(oc.lat))
			}
			br.late = append(br.late, ms(oc.late))
		}
		res.mismatches += in.verify(bi, out)
		for _, oc := range br.exec {
			res.attempted++
			if oc.err != nil {
				res.failed++
				res.errs = append(res.errs, fmt.Errorf("execute: %w", oc.err))
			}
		}
		perRung[b.rung] = append(perRung[b.rung], br)
		for _, batch := range bi.execs[:len(execOut)] {
			if err := in.twin.ExecuteWorkload(ctx, workload.Queries(batch), experiments.Cards(batch)); err != nil {
				return nil, err
			}
		}
		if b.sat > 0 && mem != nil {
			bi = blockInputs{} // the closures above still hold bi: let its arrivals go
			debug.FreeOSMemory()
		}
	}
	// The generator's lateness decides validity where latency is reported:
	// on the rungs that met the limit. Past capacity the generator shares
	// the saturated CPUs, and its delays are part of the overload.
	var late, lateAll []float64
	for r, rate := range rates {
		rr := rungOf(rate, perRung[r], o.p99LimitMS)
		res.rungs = append(res.rungs, rr)
		res.attempted += rr.n
		res.failed += rr.failed
		if rr.ok && rate != saturated {
			late = append(late, rr.late...)
		}
		lateAll = append(lateAll, rr.late...)
	}
	if len(late) == 0 {
		late = lateAll
	}
	res.lateP99 = quantile(late, 0.99)
	res.steal = median(steals)
	return res, nil
}

// verify counts the block's served estimates that are not finite or, on
// serve-read, differ from the twin's. serve-mixed's twin is checked once
// the run ends, since the tenant retrains while the block runs.
func (in *serveInputs) verify(bi blockInputs, out []outcome) int64 {
	var bad int64
	for i, oc := range out {
		if oc.err != nil {
			continue
		}
		est := math.Float64frombits(bi.served[i])
		switch {
		case math.IsNaN(est) || math.IsInf(est, 0):
			bad++
		case !in.shape.writes && bi.served[i] != math.Float64bits(in.twin.Estimate(bi.qs[i])):
			bad++
		}
	}
	return bad
}

// checkAfterRetrains requires the served model to answer a fresh probe
// set bit-identically to the twin, which has applied the same executes in
// the same order: retraining over the wire must equal retraining in
// process.
func checkAfterRetrains(ctx context.Context, st *stack, in *serveInputs) error {
	for i, q := range in.probe {
		got, err := st.est.EstimateContext(ctx, q)
		if err != nil {
			return fmt.Errorf("probe %d: %w", i, err)
		}
		if want := in.twin.Estimate(q); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("probe %d after %d retrains: served %v, twin %v", i, in.execs, got, want)
		}
	}
	return nil
}

// maxRate is the highest estimate rate the stack sustains without a
// growing backlog. Rungs are taken in ascending order, ending with the
// saturation rung. The first that misses the limit (p99 above it, or any
// arrival failed, refused or dropped) is overloaded or nearly so, and
// what it completed per second is the stack's capacity, bounded below by
// the rung under it, which met the limit, and above by its own offered
// rate. When every fixed rate meets the limit, the saturation rung, which
// runs the stack as fast as it goes with a bounded backlog, gives it.
func maxRate(rungs []rungResult) float64 {
	lo := 0.0
	for _, r := range rungs {
		if !r.ok || r.rate == saturated {
			return min(max(r.goodput, lo), r.rate)
		}
		lo = r.rate
	}
	return lo
}
