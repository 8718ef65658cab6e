package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"pace/internal/ce"
	"pace/internal/detector"
	"pace/internal/engine"
	"pace/internal/faults"
	"pace/internal/generator"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/resilience"
	"pace/internal/surrogate"
	"pace/internal/workload"
)

// Algorithm selects the generator-training algorithm of §5.3.
type Algorithm int

const (
	// Accelerated is the progressive-update algorithm of Fig. 5(b) /
	// Algorithm 1 — the PACE default.
	Accelerated Algorithm = iota
	// Basic is the alternating algorithm of Fig. 5(a), kept for the
	// Fig. 12 ablation.
	Basic
)

// Config assembles the full PACE pipeline configuration.
type Config struct {
	// NumPoison is the size of the final poisoning workload (default
	// 450, the paper's 5% of a 10 000-query training history... scaled).
	NumPoison int
	// Algorithm selects Accelerated (default) or Basic.
	Algorithm Algorithm
	// UseDetector enables the §6 anomaly-detector confrontation
	// (default true; set DisableDetector to turn off).
	DisableDetector bool
	// ForceType skips model-type speculation and uses the given type
	// (the Table 7 wrong-surrogate experiments). Leave nil for the
	// normal pipeline.
	ForceType *ce.Type
	// DetectorPercentile calibrates the anomaly threshold ε to this
	// percentile of the historical workload's reconstruction errors
	// (default 90; set negative to keep the detector's absolute ε).
	DetectorPercentile float64

	// Workers bounds the campaign's worker pool: oracle labeling inside
	// generator training and the speculation candidate trainings fan out
	// across this many goroutines. 0 runs serially; negative uses
	// GOMAXPROCS. Any value yields a bit-identical campaign for a fixed
	// seed — parallelism changes wall-clock time, never results.
	Workers int
	// OracleCacheSize enables the memoizing COUNT(*) cache: > 0 is the
	// LRU capacity in labels, < 0 uses engine.DefaultOracleCacheSize,
	// 0 disables caching. Hit/miss counters surface in Result.Stats.
	OracleCacheSize int

	// Retry is the campaign-wide retry policy for target and oracle
	// calls (zero value = sensible defaults). Breaker, when set, gates
	// oracle traffic and enforces the attacker's query budget. Faults,
	// when set, wraps the target AND the oracle with an injected
	// unreliability profile (chaos testing).
	Retry   resilience.RetryPolicy
	Breaker *resilience.Breaker
	Faults  *faults.Injector

	// Telemetry carries the campaign's observability channels — metrics
	// registry, span tracer, structured logger (see internal/obs). Every
	// stage instruments itself against it: spans cover speculation,
	// surrogate epochs, outer loops, oracle label batches, retries and
	// checkpoints; counters and gauges cover oracle traffic, pool, cache,
	// breaker and fault activity. Nil disables all three channels at
	// near-zero cost.
	Telemetry *obs.Telemetry

	// CheckpointEvery/CheckpointSink checkpoint generator training every
	// N outer loops (N ≤ 0 means every loop when a sink is set). Resume,
	// when non-nil, skips surrogate acquisition and continues training
	// from the checkpoint.
	CheckpointEvery int
	CheckpointSink  func(*Checkpoint) error
	Resume          *Checkpoint

	Speculation surrogate.SpeculationConfig
	Surrogate   surrogate.TrainConfig
	Generator   generator.Config
	Detector    detector.Config
	Trainer     TrainerConfig
}

func (c Config) withDefaults() Config {
	if c.NumPoison == 0 {
		c.NumPoison = 450
	}
	if c.DetectorPercentile == 0 {
		c.DetectorPercentile = 90
	}
	if c.Speculation.Retry.MaxAttempts == 0 && c.Speculation.Retry.Retryable == nil {
		c.Speculation.Retry = c.Retry
	}
	if c.Surrogate.Retry.MaxAttempts == 0 && c.Surrogate.Retry.Retryable == nil {
		c.Surrogate.Retry = c.Retry
	}
	return c
}

// Result is the outcome of a full PACE run.
type Result struct {
	// SpeculatedType is the architecture speculation chose (or the
	// forced type).
	SpeculatedType ce.Type
	// Similarities are the per-type speculation scores (nil when the
	// type was forced).
	Similarities map[ce.Type]float64
	// SpeculationFellBack reports that speculation failed against the
	// unreliable target and the pipeline degraded to the Linear
	// surrogate — the paper's most robust type — instead of aborting.
	SpeculationFellBack bool
	// FailedProbes counts speculation probes lost to target failures.
	FailedProbes int
	// Surrogate is the trained white-box stand-in.
	Surrogate *ce.Estimator
	// Poison is the final poisoning workload with true cardinalities.
	Poison      []*query.Query
	PoisonCards []float64
	// Objective is the convergence curve (one value per outer loop).
	Objective []float64
	// Stats tallies the oracle traffic of generator training, including
	// the invalid-query rate (Stats.InvalidRate), how many samples were
	// skipped for lack of a label, and the oracle cache's hit/miss
	// counters when one was configured.
	Stats TrainerStats
	// CacheStats snapshots the oracle cache (nil when
	// Config.OracleCacheSize left it disabled).
	CacheStats *engine.CacheStats
	// FaultCounters snapshots the fault injector's tallies (nil when no
	// injector was configured).
	FaultCounters *faults.Counters
	// Metrics snapshots the telemetry registry at campaign end (nil when
	// Config.Telemetry carried no registry). On a registry private to
	// this campaign the pace_oracle_* counters agree exactly with Stats.
	Metrics *obs.Snapshot
	// TrainTime covers surrogate acquisition + generator training;
	// GenTime covers drawing the final poisoning workload; AttackTime
	// covers the target's incremental update on it.
	TrainTime, GenTime, AttackTime time.Duration
}

// Run executes the complete PACE attack of §3: speculate and train a
// surrogate (§4), adversarially train the poisoning generator with the
// anomaly detector (§5–6), generate the poisoning workload, and execute
// it against the target (§3.4).
//
// The campaign honors ctx (deadline or cancellation) and survives an
// unreliable target: calls are retried per Config.Retry, failed
// speculation degrades to the Linear surrogate, unlabeled oracle calls
// are skipped, and — when Config.CheckpointSink is set — training is
// checkpointed so a killed campaign can resume via Config.Resume. On
// error the returned Result carries whatever state was reached (it is
// non-nil whenever training started).
func (c *Campaign) Run(ctx context.Context) (res *Result, err error) {
	target := c.Target
	switch {
	case target == nil && c.TargetURL == "":
		return nil, errors.New("core: campaign needs a Target or a TargetURL")
	case target != nil && c.TargetURL != "":
		return nil, errors.New("core: Target and TargetURL are mutually exclusive")
	case target == nil:
		rc, err := remote.NewClient(c.TargetURL, c.Remote)
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		target = rc.Target(c.Remote.Tenant)
	}
	// Derive the trace ID from the seed: two runs of the same campaign
	// carry the same trace ID, so their stitched fleet traces are
	// directly comparable (and the determinism tests can diff them).
	if tel := c.Config.Telemetry; tel != nil && tel.Tracer != nil {
		tel.Tracer.SetTraceID(obs.DeriveTraceID(c.Seed))
	}
	rng := rand.New(rand.NewSource(c.Seed))
	wgen, test, history := c.Workload, c.Test, c.History
	cfg := c.Config.withDefaults()
	res = &Result{}
	ctx = obs.NewContext(ctx, cfg.Telemetry)
	reg := cfg.Telemetry.Registry()
	ctx, span := obs.StartSpan(ctx, "campaign",
		obs.Int("workers", cfg.Workers),
		obs.Int("num_poison", cfg.NumPoison))
	defer span.End()
	if reg != nil {
		defer func() {
			s := reg.Snapshot()
			res.Metrics = &s
		}()
	}
	pool := engine.PoolFor(cfg.Workers).Instrument(reg)
	cfg.Breaker.Instrument(reg)
	cfg.Faults.Instrument(reg)
	if cfg.Speculation.Workers == 0 {
		cfg.Speculation.Workers = cfg.Workers
	}
	oracle := EngineOracle(wgen)
	if cfg.Faults != nil {
		target = cfg.Faults.WrapTarget(target)
		oracle = Oracle(cfg.Faults.WrapOracle(oracle))
	}
	if cfg.OracleCacheSize != 0 {
		// The cache sits on the attacker's side of the unreliable
		// channel, above fault injection: a memoized label costs no
		// round trip and cannot fail.
		cache := engine.NewOracleCache(engine.Labeler(oracle), cfg.OracleCacheSize,
			func(e error) bool { return errors.Is(e, ErrInvalidQuery) }).Instrument(reg)
		oracle = Oracle(cache.Label)
		defer func() {
			s := cache.Stats()
			res.Stats.CacheHits, res.Stats.CacheMisses = s.Hits, s.Misses
			res.CacheStats = &s
		}()
	}

	trainStart := time.Now()

	// Stage (a): surrogate acquisition (skipped on resume — the
	// checkpoint carries the trained surrogate).
	if cfg.Resume != nil {
		res.SpeculatedType = cfg.Resume.Type
		model := ce.New(cfg.Resume.Type, wgen.DS.Meta, cfg.Surrogate.HP, rng)
		res.Surrogate = ce.NewEstimator(model, cfg.Surrogate.Train, rng)
	} else {
		if cfg.ForceType != nil {
			res.SpeculatedType = *cfg.ForceType
		} else {
			spec, err := surrogate.Speculate(ctx, target, wgen, cfg.Speculation, rng)
			switch {
			case err == nil:
				res.SpeculatedType = spec.Type
				res.Similarities = spec.Similarities
				res.FailedProbes = spec.FailedProbes
			case ctx.Err() != nil:
				return res, ctx.Err()
			default:
				// Graceful degradation: the target is too unreliable to
				// fingerprint, so attack through the most robust
				// surrogate type instead of giving up.
				res.SpeculatedType = ce.Linear
				res.SpeculationFellBack = true
			}
		}
		sur, err := surrogate.Train(ctx, target, res.SpeculatedType, wgen, cfg.Surrogate, rng)
		if err != nil {
			return res, fmt.Errorf("core: surrogate training failed: %w", err)
		}
		res.Surrogate = sur
	}

	// Stage (b): generator (+ detector) training.
	gen := generator.New(wgen.DS.Meta, wgen.DS.Joinable, cfg.Generator, rng)
	var det *detector.Detector
	if !cfg.DisableDetector {
		_, dspan := obs.StartSpan(ctx, "detector_train", obs.Int("history", len(history)))
		det = detector.New(wgen.DS.Meta.Dim(), cfg.Detector, rng)
		hEnc := encodings(history, wgen)
		det.Train(hEnc)
		if cfg.DetectorPercentile > 0 {
			det.CalibrateThreshold(hEnc, cfg.DetectorPercentile)
		}
		dspan.End()
	}
	testSamples := MakeTestSamples(res.Surrogate, test)
	trainer := NewTrainer(res.Surrogate, gen, det, oracle, testSamples, cfg.Trainer, rng).Instrument(reg)
	trainer.Retry = cfg.Retry
	trainer.Breaker = cfg.Breaker
	trainer.Pool = pool
	trainer.CheckpointEvery = cfg.CheckpointEvery
	trainer.CheckpointSink = cfg.CheckpointSink
	if cfg.Resume != nil {
		if err := trainer.Resume(cfg.Resume); err != nil {
			return res, err
		}
	}
	var trainErr error
	switch cfg.Algorithm {
	case Basic:
		trainErr = trainer.TrainBasic(ctx)
	default:
		trainErr = trainer.TrainAccelerated(ctx)
	}
	res.Objective = trainer.Objective
	res.TrainTime = time.Since(trainStart)
	if trainErr != nil {
		res.Stats = trainer.Stats()
		res.FaultCounters = faultCounters(cfg)
		return res, trainErr
	}

	// Stage (c): attack.
	genStart := time.Now()
	res.Poison, res.PoisonCards = trainer.GeneratePoison(ctx, cfg.NumPoison)
	res.GenTime = time.Since(genStart)
	res.Stats = trainer.Stats()

	attackStart := time.Now()
	ectx, espan := obs.StartSpan(ctx, "poison_execute", obs.Int("queries", len(res.Poison)))
	// The poison batch is the campaign's payoff — one transient outage
	// (a shed queue, a backend failing over) must not void the whole
	// run. Retried as ONE call, never chunk-by-chunk: the victim
	// shuffles its whole sample set per retraining epoch, so partial
	// re-sends are not equivalent to the original batch. Retry-After
	// hints from the server override the backoff schedule inside Do.
	execPol := cfg.Retry
	if execPol.Retryable == nil {
		execPol.Retryable = RetryableOracleError
	}
	_, execErr := execPol.Do(ectx, nil, func(ctx context.Context) error {
		return target.ExecuteWorkload(ctx, res.Poison, res.PoisonCards)
	})
	espan.End()
	res.AttackTime = time.Since(attackStart)
	res.FaultCounters = faultCounters(cfg)
	if execErr != nil {
		return res, fmt.Errorf("core: poison execution failed: %w", execErr)
	}
	obs.From(ctx).Logger().Info("campaign done",
		"type", res.SpeculatedType.String(),
		"poison", len(res.Poison),
		"oracle_calls", res.Stats.OracleCalls,
		"train_time", res.TrainTime)
	return res, nil
}

func faultCounters(cfg Config) *faults.Counters {
	if cfg.Faults == nil {
		return nil
	}
	c := cfg.Faults.Counters()
	return &c
}

// EngineOracle adapts the workload generator's exact engine into the
// attacker's COUNT(*) oracle. Engine rejections surface as
// ErrInvalidQuery — an invalid query has no cardinality, and conflating
// it with an empty result would feed the trainer fake zero labels.
func EngineOracle(wgen *workload.Generator) Oracle {
	return func(ctx context.Context, q *query.Query) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		card, err := wgen.Eng.Cardinality(q)
		if err != nil {
			return 0, fmt.Errorf("%w: %v", ErrInvalidQuery, err)
		}
		return card, nil
	}
}

// MakeTestSamples normalizes a labeled test workload against the
// surrogate's normalizer.
func MakeTestSamples(sur *ce.Estimator, test []workload.Labeled) []ce.Sample {
	return sur.MakeSamples(workload.Queries(test), cardsOf(test))
}

func encodings(w []workload.Labeled, wgen *workload.Generator) [][]float64 {
	out := make([][]float64, len(w))
	for i, l := range w {
		out[i] = l.Q.Encode(wgen.DS.Meta)
	}
	return out
}

// CraftPoison produces a poisoning workload of size n with the given
// baseline method against a trained surrogate. PACE itself must go
// through Campaign.Run (it needs the full trainer); passing PACE here panics.
func CraftPoison(ctx context.Context, m Method, sur *ce.Estimator, wgen *workload.Generator,
	genCfg generator.Config, n int, rng *rand.Rand) ([]*query.Query, []float64) {
	oracle := EngineOracle(wgen)
	switch m {
	case Random:
		return RandomPoison(wgen, n)
	case LbS:
		return LbSPoison(sur, wgen, n)
	case Greedy:
		return GreedyPoison(ctx, sur, wgen, oracle, n, rng)
	case LbG:
		gen := generator.New(wgen.DS.Meta, wgen.DS.Joinable, genCfg, rng)
		return LbGPoison(ctx, sur, gen, oracle, LbGConfig{}, n, rng)
	default:
		panic(fmt.Sprintf("core: CraftPoison does not implement %v", m))
	}
}
