package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"pace/internal/ce"
	"pace/internal/experiments"
	"pace/internal/obs"
	"pace/internal/query"
)

// The end-to-end metrics every workload reports (tracing off). Each is a
// user-visible cost of the workload's own operation; NOTES.md maps them
// onto the serving and campaign figures.
var endToEnd = []struct{ name, unit string }{
	{"latency_p50_ms", "ms"},  // serve: estimate p50 at the reference rung; campaign: median Campaign.Run
	{"latency_tail_ms", "ms"}, // serve: estimate p90 at the reference rung; campaign: slowest Campaign.Run
	{"rate_per_s", "1/s"},     // serve: max_rate_qps; campaign: oracle labels per CPU-second of Campaign.Run
	{"setup_s", "s"},
	{"rss_mb", "MB"}, // serve: mean resident memory of the measured stack; campaign: of Campaign.Run
}

// The per-layer metrics every traced run reports, 0 where the workload
// does not use the layer.
var perLayer = []struct{ name, unit string }{
	{"wire.encode_us", "us"}, {"wire.decode_us", "us"}, {"wire.bytes_per_query", "B"},
	{"remote.queries_per_request", "count"}, {"remote.rpc_self_ms_p50", "ms"}, {"remote.rpc_self_ms_p99", "ms"},
	{"router.proxy_self_ms_p50", "ms"}, {"router.proxy_self_ms_p99", "ms"},
	{"targetserver.srv_self_ms_p50", "ms"}, {"targetserver.srv_self_ms_p99", "ms"}, {"targetserver.shed", "count"},
	{"tenant.queue_wait_ms_p50", "ms"}, {"tenant.queue_wait_ms_p99", "ms"}, {"tenant.batch_gather_ms", "ms"},
	{"tenant.queries_per_batch", "count"}, {"tenant.cache_hit_ratio", "ratio"}, {"tenant.exec_wait_ms", "ms"},
	{"serve.exec_p50_ms", "ms"}, {"serve.exec_p90_ms", "ms"},
	{"ce.inference_us_per_query", "us"}, {"ce.retrain_ms", "ms"},
	{"core.outer_loop_self_ms", "ms"}, {"core.objective_eval_ms", "ms"}, {"core.poison_draw_ms", "ms"},
	{"core.poison_execute_ms", "ms"}, {"core.invalid_share", "ratio"},
	{"engine.labels", "count"}, {"engine.label_ms", "ms"}, {"engine.cache_hit_ratio", "ratio"},
	{"detector.train_ms", "ms"}, {"surrogate.train_ms", "ms"},
	{"setup.world_ms", "ms"}, {"setup.victim_train_ms", "ms"}, {"setup.provision_ms", "ms"},
	{"driver.late_p99_ms", "ms"}, {"trace.overhead_ms", "ms"},
}

func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	panic("perfbench: unknown metric " + name)
}

// put records a metric from the catalogs above.
func (r *report) put(name string, v float64) { r.set(name, unitOf(name), v) }

// zeroLayers starts a traced run's report with every per-layer metric at
// 0, so layers the workload never enters read as 0.
func (r *report) zeroLayers() {
	for _, m := range perLayer {
		r.set(m.name, m.unit, 0)
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// benchServe runs serve-read or serve-mixed.
func benchServe(ctx context.Context, o opts, rep *report) error {
	shape := shapeOf(o.workload)
	t0 := time.Now()
	w, err := experiments.NewWorld(serveDataset, experiments.Config{Seed: worldSeed})
	if err != nil {
		return err
	}
	worldMS := ms(time.Since(t0))
	t1 := time.Now()
	// The in-process twin: the same spec the tenant is provisioned from,
	// so its answers are what the served victim must return bit for bit.
	twin := w.NewBlackBox(ce.FCN, 1)
	victimMS := ms(time.Since(t1))
	// serve-mixed retrains its twin along with the tenant, so every drive
	// needs a fresh one; serve-read's is never retrained.
	twinFor := func() *ce.BlackBox {
		if shape.writes {
			return w.NewBlackBox(ce.FCN, 1)
		}
		return twin
	}

	// The fixed rates, then the saturation rung.
	rates := append(append([]float64(nil), o.ladder...), saturated)
	measured := time.Duration(o.seconds) * time.Second
	perRound := len(rates) - 1 + satBlocks
	if o.trace {
		// The traced run measures the reference rung twice, untraced and
		// traced, half the time each.
		rates = []float64{o.ladder[o.ref]}
		measured /= 2
		perRound = 1
	}
	rounds := max(1, int(measured/(blockLen*time.Duration(perRound))))
	warm := warmInputs(w, o, rates[0])
	if o.trace {
		return traceServe(ctx, o, rep, shape, twinFor, w, warm, rates, rounds, worldMS, victimMS)
	}
	in := makeInputs(w, shape, twin, rates, o.ladder[o.ref], rounds, o.seed)

	// Probes between the set-ups and around every saturation block time
	// the host's speed (hostspeed.go).
	var setups []float64
	var st *stack
	var mem *rssWatch
	var base float64
	probeHost()
	for k := 0; k < serveSetups; k++ {
		if st != nil {
			if err := st.close(ctx); err != nil {
				return err
			}
		}
		if k == serveSetups-1 {
			// Memory is the measured stack's: sampled from its boot to the
			// end of the drive, above what the process held before it (the
			// benchmark's own world, twin and inputs), with the garbage of
			// the earlier set-ups collected.
			runtime.GC()
			debug.FreeOSMemory()
			base = residentMB()
			mem = watchRSS()
		}
		c := startClock()
		if st, err = bootStack(ctx, shape, o, nil); err != nil {
			mem.end()
			return err
		}
		setups = append(setups, c.stop().adj.Seconds())
		probeHost()
	}
	defer st.close(ctx)
	mem.pause(true)
	warmUp(ctx, st, warm)
	runtime.GC()
	debug.FreeOSMemory()
	res, err := driveServe(ctx, st, in, rates, o, nil, mem)
	peak, mean := mem.end()
	peak, mean = peak-base, mean-base
	if err != nil {
		return err
	}
	checkServe(ctx, rep, st, in, res)

	// The saturation rate and the set-up time at the reference host's speed.
	host := hostSlowdown()
	sat := &res.rungs[len(res.rungs)-1]
	rawRate, rawSetup := sat.goodput, median(setups)
	sat.goodput *= host.wall
	setup := rawSetup / host.adj
	fmt.Printf("host: probe %.3fx the reference's time (median of %d)\n", host.wall, len(probes))
	for _, r := range res.rungs {
		verdict := "meets"
		if !r.ok {
			verdict = "misses"
		}
		name := fmt.Sprintf("rung %g qps", r.rate)
		if r.rate == saturated {
			name = fmt.Sprintf("saturation (%d in flight; %.0f per s at the host's own speed)", satInFlight, rawRate)
		}
		fmt.Printf("%s: est_p50_ms=%.4f est_p90_ms=%.4f est_p99_ms=%.4f completed_per_s=%.0f n=%d failed=%d dropped=%d steal=%.3f (%s the %g ms p99 limit)\n",
			name, r.p50, r.p90, r.p99, r.goodput, r.n, r.failed, r.dropped, r.steal, verdict, o.p99LimitMS)
	}
	ref := res.rungs[o.ref]
	if shape.writes {
		ex := summarize(ref.exec)
		fmt.Printf("execute at %g qps: exec_p50_ms=%.4f exec_p90_ms=%.4f n=%d failed=%d (%d batches over the run)\n",
			ref.rate, ex.p50, ex.p90, ex.n, ex.failed, in.execs)
	}
	rate := maxRate(res.rungs)
	rep.put("latency_p50_ms", ref.p50)
	rep.put("latency_tail_ms", ref.p90)
	rep.put("rate_per_s", rate)
	rep.put("setup_s", setup)
	rep.put("rss_mb", mean)
	fmt.Printf("max_rate_qps=%.1f setup_s=%.4f (at the host's own speed %.4f) rss_mb=%.1f peak_rss_mb=%.1f (above a %.1f MB base) driver_late_p99_ms=%.4f\n",
		rate, setup, rawSetup, mean, peak, base, res.lateP99)
	return nil
}

// checkServe books a serve run's counts and verdicts into the report.
// Estimates refused or timed out under load only make their rung miss
// the limit; any other failure, a wrong answer, a late generator or a
// contended host invalidates the run.
func checkServe(ctx context.Context, rep *report, st *stack, in *serveInputs, res *serveResult) {
	rep.attempted += res.attempted
	rep.failed += res.failed
	for i, err := range res.errs {
		if i == 3 {
			rep.fail("... and %d more failures", len(res.errs)-i)
			break
		}
		rep.fail("operation failed: %v", err)
	}
	if res.mismatches > 0 {
		rep.fail("%d estimates differ from the in-process twin (or are not finite)", res.mismatches)
	}
	if res.lateP99 > lateLimitMS {
		rep.fail("invalid run: the generator fired %.3f ms late at p99 (limit %g ms)", res.lateP99, lateLimitMS)
	}
	checkSteal(rep, res.steal)
	if in.shape.writes {
		if err := checkAfterRetrains(ctx, st, in); err != nil {
			rep.fail("served model after retrains differs from the twin: %v", err)
		}
	}
}

// traceServe measures the reference rung untraced, then again on a fresh
// stack whose server, router, tenant and client all emit spans into one
// in-memory tracer, and folds the spans into per-layer metrics.
func traceServe(ctx context.Context, o opts, rep *report, shape serveShape, twinFor func() *ce.BlackBox,
	w *experiments.World, warm []*query.Query, rates []float64, rounds int, worldMS, victimMS float64) error {
	rep.zeroLayers()
	plain, err := bootStack(ctx, shape, o, nil)
	if err != nil {
		return err
	}
	warmUp(ctx, plain, warm)
	untraced, err := driveServe(ctx, plain, makeInputs(w, shape, twinFor(), rates, o.ladder[o.ref], rounds, o.seed), rates, o, nil, nil)
	if err != nil {
		return err
	}
	if err := plain.close(ctx); err != nil {
		return err
	}

	sink := &traceSink{}
	tr := obs.NewTracer(sink)
	tel := &obs.Telemetry{Tracer: tr}
	st, err := bootStack(ctx, shape, o, tel)
	if err != nil {
		return err
	}
	warmUp(obs.NewContext(ctx, tel), st, warm)
	in := makeInputs(w, shape, twinFor(), rates, o.ladder[o.ref], rounds, o.seed)
	res, err := driveServe(ctx, st, in, rates, o, tel, nil)
	if err != nil {
		return err
	}
	checkServe(ctx, rep, st, in, res)

	es := st.est.Stats()
	qpr := ratio(es.Queries, es.Requests)
	rep.put("wire.bytes_per_query", ratio(es.BytesOut+es.BytesIn, es.Queries))
	rep.put("remote.queries_per_request", qpr)
	rep.put("targetserver.shed", float64(st.srvCount.shed.Load()))
	if t, err := st.srv.Registry().Get(tenantID); err == nil {
		hits, misses, _ := t.CacheStats()
		rep.put("tenant.cache_hit_ratio", ratio(hits, hits+misses))
	}
	victim := st.factory.victim()
	rep.put("ce.inference_us_per_query", victim.inferenceUSPerQuery())
	rep.put("ce.retrain_ms", victim.retrainP50())
	ex := summarize(res.rungs[0].exec)
	rep.put("serve.exec_p50_ms", ex.p50)
	rep.put("serve.exec_p90_ms", ex.p90)
	rep.put("setup.world_ms", worldMS)
	rep.put("setup.victim_train_ms", victimMS)
	rep.put("setup.provision_ms", ms(st.provision))
	rep.put("driver.late_p99_ms", res.lateP99)
	rep.put("trace.overhead_ms", res.rungs[0].p50-untraced.rungs[0].p50)
	enc, dec := codecCost(warm, int(math.Round(qpr)), 2000)
	rep.put("wire.encode_us", enc)
	rep.put("wire.decode_us", dec)

	if err := st.close(ctx); err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	spans, err := sink.spans()
	if err != nil {
		return err
	}
	f := fold(spans)
	rep.put("remote.rpc_self_ms_p50", f.selfQ("rpc_estimate", 0.5))
	rep.put("remote.rpc_self_ms_p99", f.selfQ("rpc_estimate", 0.99))
	rep.put("router.proxy_self_ms_p50", f.selfQ("proxy_estimate", 0.5))
	rep.put("router.proxy_self_ms_p99", f.selfQ("proxy_estimate", 0.99))
	rep.put("targetserver.srv_self_ms_p50", f.selfQ("srv_estimate", 0.5))
	rep.put("targetserver.srv_self_ms_p99", f.selfQ("srv_estimate", 0.99))
	rep.put("tenant.queue_wait_ms_p50", f.durQ("queue_wait", 0.5))
	rep.put("tenant.queue_wait_ms_p99", f.durQ("queue_wait", 0.99))
	rep.put("tenant.batch_gather_ms", f.batchGatherP50())
	rep.put("tenant.queries_per_batch", f.queriesPerBatch())
	rep.put("tenant.exec_wait_ms", f.execWaitP50())
	for _, name := range []string{"label_batch", "detector_train", "surrogate_train", "outer_loop"} {
		if len(f.dur[name]) > 0 {
			rep.fail("campaign span %s appeared on a serving workload", name)
		}
	}
	fmt.Printf("traced: %d spans; est_p50_ms untraced=%.4f traced=%.4f\n",
		len(spans), untraced.rungs[0].p50, res.rungs[0].p50)
	fmt.Printf("requests served: paced=%d", st.srvCount.requests.Load())
	if st.rtCount != nil {
		fmt.Printf(" pacerouter=%d", st.rtCount.requests.Load())
	}
	fmt.Printf(" (client sent %d estimate requests for %d queries)\n", es.Requests, es.Queries)
	printLayers(rep)
	return nil
}

// warmInputs are fresh queries, apart from the measured pool, that open
// connections and start goroutines before anything is timed.
func warmInputs(w *experiments.World, o opts, rate float64) []*query.Query {
	gen := w.WGen.WithRng(rand.New(rand.NewSource(o.seed*seedProbe + 7)))
	n := int(rate / 4) // a quarter second at the first rung's rate
	qs := make([]*query.Query, max(n, 64))
	for i := range qs {
		qs[i] = gen.RandomQuery()
	}
	return qs
}

func warmUp(ctx context.Context, st *stack, qs []*query.Query) {
	due := make([]time.Duration, len(qs))
	for i := range due {
		due[i] = time.Duration(i) * 250 * time.Millisecond / time.Duration(len(qs))
	}
	openLoop(ctx, due, func(ctx context.Context, i int) error {
		_, err := st.est.EstimateContext(ctx, qs[i])
		return err
	})
	// The first seconds at saturation run slower (buffers and the heap
	// grow): take them here, untimed.
	for t := time.Now(); time.Since(t) < satWarm; {
		closedLoop(ctx, satInFlight, 1<<14, satWarm, func(ctx context.Context, i int) error {
			_, err := st.est.EstimateContext(ctx, qs[i%len(qs)])
			return err
		})
	}
}

// benchCampaign runs campaign-tpch: whole campaigns, each on a fresh
// world and victim, until --seconds of campaign time have run.
func benchCampaign(ctx context.Context, o opts, rep *report) error {
	workers := o.conns // cmd/pace's -workers -1: every core
	if o.trace {
		return traceCampaign(ctx, o, rep, workers)
	}
	var walls, setups, peaks, means, perCPU, steals []float64
	var measured time.Duration
	for n := 1; n <= minCampaigns || measured < time.Duration(o.seconds)*time.Second; n++ {
		cr, err := runCampaign(ctx, workers, nil, true)
		rep.attempted++
		if err != nil {
			return err
		}
		measured += cr.run.wall
		labels := cr.res.Stats.OracleCalls
		walls = append(walls, ms(cr.run.adj))
		setups = append(setups, cr.setup.adj.Seconds())
		peaks = append(peaks, cr.peakMB)
		means = append(means, cr.meanMB)
		perCPU = append(perCPU, float64(labels)/cr.run.cpu)
		steals = append(steals, cr.run.steal)
		fmt.Printf("campaign %d: campaign_s=%.4f (wall %.4f) cpu_s=%.4f steal=%.3f setup_s=%.4f (wall %.4f) rss_mb=%.1f peak_rss_mb=%.1f degradation=%v poison_digest=%s oracle_calls=%d\n",
			n, cr.run.adj.Seconds(), cr.run.wall.Seconds(), cr.run.cpu, cr.run.steal, cr.setup.adj.Seconds(), cr.setup.wall.Seconds(), cr.meanMB, cr.peakMB,
			cr.degradation, cr.digest, labels)
		if err := checkCampaign(cr); err != nil {
			rep.fail("campaign %d: %v", n, err)
		}
	}
	checkSteal(rep, median(steals))
	// The times and the rate at the reference host's speed (hostspeed.go).
	host := hostSlowdown()
	p50, tail := median(walls)/host.adj, quantile(walls, 1)/host.adj
	perCPUAtRef, setup := median(perCPU)*host.cpu, median(setups)/host.adj
	rep.put("latency_p50_ms", p50)
	rep.put("latency_tail_ms", tail)
	rep.put("rate_per_s", perCPUAtRef)
	rep.put("setup_s", setup)
	rep.put("rss_mb", median(means))
	fmt.Printf("host: probe %.3fx the reference's time, %.3fx its CPU time (median of %d)\n", host.adj, host.cpu, len(probes))
	fmt.Printf("campaign_s=%.4f labels_per_cpu_s=%.1f setup_s=%.4f (at the host's own speed %.4f, %.1f, %.4f) rss_mb=%.1f peak_rss_mb=%.1f\n",
		p50/1e3, perCPUAtRef, setup, median(walls)/1e3, median(perCPU), median(setups), median(means), median(peaks))
	return nil
}

// traceCampaign runs one campaign untraced and one under an in-memory
// tracer, and folds the campaign's own spans by stage.
func traceCampaign(ctx context.Context, o opts, rep *report, workers int) error {
	rep.zeroLayers()
	plain, err := runCampaign(ctx, workers, nil, false)
	rep.attempted++
	if err != nil {
		return err
	}
	sink := &traceSink{}
	tr := obs.NewTracer(sink)
	cr, err := runCampaign(ctx, workers, &obs.Telemetry{Tracer: tr}, false)
	rep.attempted++
	if err != nil {
		return err
	}
	if err := tr.Close(); err != nil {
		return err
	}
	for _, c := range []*campaignRun{plain, cr} {
		if err := checkCampaign(c); err != nil {
			rep.fail("%v", err)
		}
	}
	checkSteal(rep, max(plain.run.steal, cr.run.steal))
	spans, err := sink.spans()
	if err != nil {
		return err
	}
	f := fold(spans)
	st := cr.res.Stats
	rep.put("ce.inference_us_per_query", cr.victim.inferenceUSPerQuery())
	rep.put("ce.retrain_ms", cr.victim.retrainP50())
	rep.put("core.outer_loop_self_ms", f.selfSum("outer_loop"))
	rep.put("core.objective_eval_ms", f.selfSum("objective_eval"))
	rep.put("core.poison_draw_ms", f.selfSum("poison_draw"))
	rep.put("core.poison_execute_ms", f.durSum("poison_execute"))
	rep.put("core.invalid_share", st.InvalidRate())
	rep.put("engine.labels", float64(st.OracleCalls))
	rep.put("engine.label_ms", f.durSum("label_batch"))
	if cs := cr.res.CacheStats; cs != nil {
		rep.put("engine.cache_hit_ratio", ratio(cs.Hits, cs.Hits+cs.Misses))
	}
	rep.put("detector.train_ms", f.durSum("detector_train"))
	rep.put("surrogate.train_ms", f.durSum("surrogate_train"))
	rep.put("setup.world_ms", ms(cr.world))
	rep.put("setup.victim_train_ms", ms(cr.victimTrain))
	rep.put("trace.overhead_ms", ms(cr.run.adj-plain.run.adj))
	for _, name := range []string{"rpc_estimate", "proxy_estimate", "srv_estimate", "queue_wait"} {
		if len(f.dur[name]) > 0 {
			rep.fail("serving span %s appeared in an in-process campaign", name)
		}
	}
	wall := ms(cr.run.wall)
	fmt.Printf("traced: %d spans; campaign_s untraced=%.4f traced=%.4f\n", len(spans), plain.run.adj.Seconds(), cr.run.adj.Seconds())
	for _, name := range []string{"engine.label_ms", "detector.train_ms", "core.outer_loop_self_ms", "surrogate.train_ms"} {
		fmt.Printf("share %s=%.3f\n", name, rep.metrics[name].Value/wall)
	}
	printLayers(rep)
	return nil
}

func printLayers(rep *report) {
	for _, m := range perLayer {
		fmt.Printf("layer %s=%.4f %s\n", m.name, rep.metrics[m.name].Value, m.unit)
	}
}
