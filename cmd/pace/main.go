// Command pace runs one full PACE attack end to end against a freshly
// trained black-box cardinality estimator on a synthetic dataset:
// model-type speculation, surrogate training, adversarial generator +
// detector training, poisoning-workload generation, and the incremental
// update of the target — then reports before/after accuracy and the
// poisoning workload's normality.
//
// The campaign harness is robust to unreliable targets: -faults injects
// a named unreliability profile (see internal/faults), -deadline bounds
// the wall clock, and -checkpoint/-resume persist generator training so
// a killed campaign can be continued.
//
// With -target-url the campaign runs against a live paced service
// (cmd/paced) instead of an in-process black box: speculation probes,
// surrogate imitation and the poisoning update all cross a real wire.
// For the same dataset/model/seed and a fault-free transport, the
// remote campaign reproduces the in-process run bit-for-bit.
//
// Examples:
//
//	pace -dataset dmv -model fcn -poison 120 -seed 7
//	pace -faults flaky -checkpoint run.ckpt -deadline 2m
//	pace -resume run.ckpt -checkpoint run.ckpt
//	pace -target-url http://127.0.0.1:8645 -dataset dmv -model fcn -seed 1
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pace/internal/ce"
	"pace/internal/cli"
	"pace/internal/core"
	"pace/internal/engine"
	"pace/internal/experiments"
	"pace/internal/faults"
	"pace/internal/metrics"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/resilience"
	"pace/internal/workload"
)

func main() {
	var (
		datasetName = flag.String("dataset", "dmv", "dataset: dmv, imdb, tpch or stats")
		modelName   = flag.String("model", "fcn", "target CE model: fcn, fcnpool, mscn, rnn, lstm or linear")
		poison      = flag.Int("poison", 0, "poisoning-query budget (0 = profile default)")
		seed        = cli.Seed()
		workers     = cli.Workers()
		oracleCache = flag.Int("oracle-cache", engine.DefaultOracleCacheSize, "memoizing oracle cache capacity in labels (0 = disabled)")
		scale       = flag.Float64("scale", 0, "dataset scale factor (0 = profile default)")
		speculate   = flag.Bool("speculate", false, "speculate the model type instead of assuming it")
		noDetector  = flag.Bool("no-detector", false, "disable the anomaly-detector confrontation")

		targetURL = flag.String("target-url", "", "attack a live paced service at this base URL instead of an in-process black box (may carry a /v1/targets/{id} tenant route)")
		tenantID  = flag.String("target", "", "tenant id at a multi-tenant paced host (default: the host's default tenant)")
		authToken = cli.AuthToken()
		codecName = flag.String("codec", "binary", "data-path wire codec for the remote target: binary or json (the client downgrades to json if the server answers 415)")

		retryAttempts = flag.Int("retry-attempts", 0, "retry budget per target/oracle call, campaign and evaluation traffic alike (0 = policy default of 3); raise it to ride out a backend failover behind pacerouter")

		faultsName = flag.String("faults", "", "inject an unreliability profile: none, slow, flaky, lossy, noisy, throttled or chaos")
		deadline   = flag.Duration("deadline", 0, "abort the campaign after this wall-clock duration (0 = none)")
		checkpoint = flag.String("checkpoint", "", "write generator-training checkpoints to this file")
		ckptEvery  = flag.Int("checkpoint-every", 1, "checkpoint every N outer loops")
		resumePath = flag.String("resume", "", "resume generator training from this checkpoint file")
		obsFlags   = cli.Obs()
	)
	flag.Parse()

	typ, err := ce.ParseType(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tel, obsShutdown, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, *deadline)
		defer cancelT()
	}

	cfg := experiments.Config{Seed: *seed, Scale: *scale, NumPoison: *poison}.WithDefaults()
	w, err := experiments.NewWorld(*datasetName, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Printf("dataset %s: %d tables, %d rows; workload: %d train / %d test\n",
		*datasetName, len(w.DS.Tables), w.DS.TotalRows(), len(w.Train), len(w.Test))

	qs := workload.Queries(w.Test)
	cards := experiments.Cards(w.Test)

	// The measurement channel. In-process it is the freshly trained
	// black box; in remote mode it is a dedicated client, separate from
	// the campaign's target so fault injection never distorts the
	// before/after numbers.
	var evalTarget ce.Target
	if *targetURL == "" {
		bb := w.NewBlackBox(typ, 1)
		evalTarget = bb
	} else {
		rc, err := remote.NewClient(*targetURL, remote.Options{
			ClientID:       "pace-eval",
			CoalesceWindow: 0,
			AuthToken:      *authToken,
			Codec:          *codecName,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer rc.Close()
		evalTarget = rc.Target(*tenantID)
		fmt.Printf("remote target: %s (%s codec)\n", *targetURL, *codecName)
	}
	evalPol := resilience.RetryPolicy{MaxAttempts: *retryAttempts}
	beforeErrs, err := targetQErrors(ctx, evalTarget, qs, cards, evalPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "target unreachable:", err)
		os.Exit(1)
	}
	before := metrics.Summarize(beforeErrs)
	fmt.Printf("target %s ready; clean test Q-error: %s\n", typ, before)

	runCfg := core.Config{
		NumPoison:       cfg.NumPoison,
		DisableDetector: *noDetector,
		Workers:         *workers,
		OracleCacheSize: *oracleCache,
		Generator:       w.GenCfg(),
		Trainer:         w.TrainerCfg(),
		Telemetry:       tel,
	}
	if *retryAttempts > 0 {
		runCfg.Retry = resilience.RetryPolicy{MaxAttempts: *retryAttempts}
	}
	runCfg.Surrogate.Queries = cfg.TrainQueries
	runCfg.Surrogate.HP = w.HP()
	runCfg.Surrogate.Train = w.TrainCfg()
	runCfg.Speculation.CandidateTrainQueries = cfg.TrainQueries / 2
	runCfg.Speculation.HP = w.HP()
	runCfg.Speculation.Train = w.TrainCfg()
	if !*speculate {
		forced := typ
		runCfg.ForceType = &forced
	}

	if *faultsName != "" {
		prof, err := faults.ByName(*faultsName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runCfg.Faults = faults.NewInjector(prof, *seed)
		fmt.Printf("fault injection: profile %q\n", prof.Name)
	}
	if *checkpoint != "" {
		runCfg.CheckpointEvery = *ckptEvery
		runCfg.CheckpointSink = core.FileCheckpointSink(*checkpoint)
	}
	if *resumePath != "" {
		cp, err := core.ReadCheckpointFile(*resumePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cannot resume:", err)
			os.Exit(2)
		}
		runCfg.Resume = cp
		fmt.Printf("resuming from %s (outer loop %d, algorithm %s)\n",
			*resumePath, cp.Outer, cp.Algorithm)
	}

	campaign := &core.Campaign{
		Workload: w.WGen,
		Test:     w.Test,
		History:  w.History,
		Config:   runCfg,
		Seed:     *seed,
	}
	if *targetURL != "" {
		// The campaign dials its own client so retries, breaker trips and
		// injected faults act on the attack channel only.
		campaign.TargetURL = *targetURL
		campaign.Remote.Tenant = *tenantID
		campaign.Remote.AuthToken = *authToken
		campaign.Remote.Codec = *codecName
	} else {
		campaign.Target = evalTarget
	}
	res, err := campaign.Run(ctx)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintln(os.Stderr, "campaign interrupted:", err)
			if *checkpoint != "" {
				fmt.Fprintf(os.Stderr, "resume with: pace -resume %s -checkpoint %s\n",
					*checkpoint, *checkpoint)
			}
		} else {
			fmt.Fprintln(os.Stderr, "attack failed:", err)
		}
		reportReliability(res)
		if serr := obsShutdown(); serr != nil {
			fmt.Fprintln(os.Stderr, "telemetry shutdown:", serr)
		}
		os.Exit(1)
	}

	if *speculate {
		if res.SpeculationFellBack {
			fmt.Printf("speculation failed against the unreliable target; fell back to %s\n",
				res.SpeculatedType)
		} else {
			fmt.Printf("speculated type: %s (similarities:", res.SpeculatedType)
			for _, t := range ce.Types() {
				fmt.Printf(" %s=%.3f", t, res.Similarities[t])
			}
			fmt.Println(")")
		}
	}
	afterErrs, err := targetQErrors(ctx, evalTarget, qs, cards, evalPol)
	if err != nil {
		fmt.Fprintln(os.Stderr, "post-attack evaluation failed:", err)
		os.Exit(1)
	}
	after := metrics.Summarize(afterErrs)
	if tel != nil && tel.Reg != nil {
		// Q-error distributions land in the registry too, so a scrape of
		// -metrics-addr sees attack effectiveness next to the traffic
		// counters.
		hb := tel.Reg.Histogram("pace_qerror_before")
		ha := tel.Reg.Histogram("pace_qerror_after")
		for _, e := range beforeErrs {
			hb.Observe(e)
		}
		for _, e := range afterErrs {
			ha.Observe(e)
		}
	}

	hEnc := experiments.Encodings(w.History, w.DS)
	pEnc := make([][]float64, len(res.Poison))
	for i, q := range res.Poison {
		pEnc[i] = q.Encode(w.DS.Meta)
	}

	fmt.Printf("\npoisoned with %d queries (train %v, generate %v, attack %v)\n",
		len(res.Poison), res.TrainTime.Round(1e6), res.GenTime.Round(1e6), res.AttackTime.Round(1e6))
	fmt.Printf("test Q-error before: %s\n", before)
	fmt.Printf("test Q-error after:  %s\n", after)
	fmt.Printf("mean degradation: %.1f×\n", after.Mean/before.Mean)
	fmt.Printf("poison/history JS divergence: %.4f\n", metrics.JSDivergence(hEnc, pEnc, 10))
	reportReliability(res)
	if serr := obsShutdown(); serr != nil {
		fmt.Fprintln(os.Stderr, "telemetry shutdown:", serr)
		os.Exit(1)
	}
}

// targetQErrors evaluates the target's Q-error on a labeled workload
// through the Target interface — the only view a remote deployment
// offers. For the in-process black box it matches BlackBox.QErrors
// exactly. Each estimate is retried under pol so a transient outage
// (backend failover behind pacerouter, a shed queue) cannot void the
// measurement; retrying an estimate is always safe — it mutates
// nothing.
func targetQErrors(ctx context.Context, t ce.Target, qs []*query.Query, cards []float64, pol resilience.RetryPolicy) ([]float64, error) {
	if pol.Retryable == nil {
		pol.Retryable = core.RetryableOracleError
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		var est float64
		if _, err := pol.Do(ctx, nil, func(c context.Context) error {
			var e error
			est, e = t.EstimateContext(c, q)
			return e
		}); err != nil {
			return nil, err
		}
		out[i] = ce.QError(est, cards[i])
	}
	return out, nil
}

// reportReliability prints the oracle-traffic statistics and, when fault
// injection was on, the injector's tallies.
func reportReliability(res *core.Result) {
	if res == nil {
		return
	}
	s := res.Stats
	if s.OracleCalls > 0 {
		fmt.Printf("oracle traffic: %d calls, %d invalid (%.1f%%), %d failed, %d retried, %d samples skipped\n",
			s.OracleCalls, s.OracleInvalid, 100*s.InvalidRate(), s.OracleFailed, s.OracleRetries, s.SkippedSamples)
	}
	if c := res.CacheStats; c != nil {
		fmt.Printf("oracle cache: %d hits / %d misses (%.1f%% hit rate), %d evictions, %d labels resident\n",
			c.Hits, c.Misses, 100*metrics.HitRate(c.Hits, c.Misses), c.Evictions, c.Size)
	}
	if s.Checkpoints > 0 {
		fmt.Printf("checkpoints written: %d\n", s.Checkpoints)
	}
	if c := res.FaultCounters; c != nil {
		fmt.Printf("injected faults: %d calls → %d transient errors, %d drops, %d rate-limited, %d noisy labels\n",
			c.Calls, c.Transients, c.Drops, c.RateLimited, c.NoisyLabels)
	}
}
