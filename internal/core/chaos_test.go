package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/faults"
	"pace/internal/generator"
	"pace/internal/resilience"
	"pace/internal/surrogate"
	"pace/internal/workload"
)

// chaosRunCfg is a small-but-complete pipeline configuration for chaos
// runs: forced type (speculation has its own tests), detector off, fast
// retry backoff so injected faults do not stretch the test wall clock.
func chaosRunCfg() Config {
	forced := ce.FCN
	return Config{
		NumPoison:       10,
		ForceType:       &forced,
		DisableDetector: true,
		Retry: resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    time.Millisecond,
		},
		Surrogate: surrogate.TrainConfig{
			Queries: 60,
			HP:      ce.HyperParams{Hidden: 8, Layers: 2},
			Train:   ce.TrainConfig{Epochs: 5, Batch: 16},
		},
		Generator: generator.Config{Hidden: 8},
		Trainer:   TrainerConfig{Batch: 8, InnerIters: 2, OuterIters: 2},
	}
}

func chaosBlackBox(f *fixture, seed int64) *ce.BlackBox {
	rng := rand.New(rand.NewSource(seed))
	model := ce.New(ce.FCN, f.wgen.DS.Meta, ce.HyperParams{Hidden: 8, Layers: 2}, rng)
	est := ce.NewEstimator(model, ce.TrainConfig{Epochs: 5, Batch: 16}, rng)
	train := f.wgen.Random(60)
	est.Train(est.MakeSamples(workload.Queries(train), cardsOf(train)))
	return ce.AsBlackBox(est)
}

// TestRunCompletesUnderFlakyProfile is the acceptance criterion for
// fault tolerance: a full campaign against the flaky profile (5%
// transient errors, 1% drops, injected latency) completes and produces
// a non-degenerate poisoning workload.
func TestRunCompletesUnderFlakyProfile(t *testing.T) {
	f := newFixture(t, 11)
	cfg := chaosRunCfg()
	cfg.Faults = faults.NewInjector(faults.Flaky(), 11)

	res, err := (&Campaign{Target: chaosBlackBox(f, 11), Workload: f.wgen, Test: f.tw,
		History: f.wgen.Random(60), Config: cfg, Seed: 11}).Run(bgCtx)
	if err != nil {
		t.Fatalf("flaky campaign failed: %v", err)
	}
	if len(res.Poison) == 0 {
		t.Fatal("flaky campaign produced no poison")
	}
	nonEmpty := 0
	for _, c := range res.PoisonCards {
		if c >= 1 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 {
		t.Error("flaky campaign produced only empty-cardinality poison")
	}
	if res.FaultCounters == nil || res.FaultCounters.Calls == 0 {
		t.Error("fault counters not reported")
	}
	if res.FaultCounters.Failures() == 0 {
		t.Error("flaky profile injected no faults — the campaign was not actually stressed")
	}
	if res.Stats.OracleCalls == 0 {
		t.Error("oracle traffic not accounted")
	}
	t.Logf("flaky campaign: %d poison queries (%d non-empty), %d faults injected, %d oracle retries, %d skipped",
		len(res.Poison), nonEmpty, res.FaultCounters.Failures(), res.Stats.OracleRetries, res.Stats.SkippedSamples)
}

// TestRunSurvivesEveryProfile drives the full pipeline through every
// named fault profile, including mid-run and immediate cancellation.
// The invariant is absolute: Campaign.Run never panics, and any returned
// error is a sane campaign-level error, not corrupted state.
func TestRunSurvivesEveryProfile(t *testing.T) {
	f := newFixture(t, 12)
	history := f.wgen.Random(60)
	for _, p := range faults.Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			cfg := chaosRunCfg()
			cfg.Faults = faults.NewInjector(p, 12)
			res, err := (&Campaign{Target: chaosBlackBox(f, 12), Workload: f.wgen, Test: f.tw,
				History: history, Config: cfg, Seed: 12}).Run(bgCtx)
			if err != nil {
				// An unreliable enough target may legitimately defeat the
				// campaign; the contract is a clean error plus whatever
				// state was reached.
				t.Logf("%s: campaign error (tolerated): %v", p.Name, err)
				if res == nil {
					t.Error("error without a partial result")
				}
				return
			}
			if len(res.Poison) == 0 {
				t.Errorf("%s: completed with no poison", p.Name)
			}
		})
	}
}

func TestRunSurvivesMidRunCancellation(t *testing.T) {
	f := newFixture(t, 13)
	history := f.wgen.Random(60)
	for _, delay := range []time.Duration{0, 2 * time.Millisecond, 20 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		if delay == 0 {
			cancel()
		} else {
			timer := time.AfterFunc(delay, cancel)
			defer timer.Stop()
		}
		cfg := chaosRunCfg()
		cfg.Faults = faults.NewInjector(faults.Chaos(), 13)
		res, err := (&Campaign{Target: chaosBlackBox(f, 13), Workload: f.wgen, Test: f.tw,
			History: history, Config: cfg, Seed: 13}).Run(ctx)
		cancel()
		if err == nil {
			// The campaign may have finished before the cancel landed;
			// that is fine as long as the result is complete.
			if len(res.Poison) == 0 {
				t.Errorf("delay %v: clean completion with no poison", delay)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Logf("delay %v: non-cancellation error (tolerated): %v", delay, err)
		}
		if res == nil {
			t.Errorf("delay %v: cancellation returned a nil result", delay)
		}
	}
}

// TestRunResumesFromCheckpointEndToEnd exercises the pipeline-level
// resume path: a campaign cancelled mid-training is resumed via
// Config.Resume and completes with the same objective curve as an
// uninterrupted campaign.
func TestRunResumesFromCheckpointEndToEnd(t *testing.T) {
	runWith := func(seed int64, sink func(*Checkpoint) error, cp *Checkpoint,
		ctx context.Context) (*Result, error) {
		// Rebuild the world identically each time — including the history
		// draw, which keeps the shared fixture RNG at the same position in
		// every run.
		f := newFixture(t, 21)
		history := f.wgen.Random(60)
		cfg := chaosRunCfg()
		cfg.Trainer = TrainerConfig{Batch: 8, InnerIters: 2, OuterIters: 4}
		cfg.CheckpointEvery = 1
		cfg.CheckpointSink = sink
		cfg.Resume = cp
		return (&Campaign{Target: chaosBlackBox(f, 21), Workload: f.wgen, Test: f.tw,
			History: history, Config: cfg, Seed: 21}).Run(ctx)
	}

	refRes, err := runWith(21, func(*Checkpoint) error { return nil }, nil, bgCtx)
	if err != nil {
		t.Fatal(err)
	}

	var last *Checkpoint
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = runWith(21, func(cp *Checkpoint) error {
		last = cp
		if n++; n == 2 {
			cancel()
		}
		return nil
	}, nil, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted campaign returned %v", err)
	}
	if last == nil || last.Outer != 2 {
		t.Fatalf("last checkpoint %+v, want outer 2", last)
	}

	resRes, err := runWith(21, func(*Checkpoint) error { return nil }, last, bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(resRes.Objective) != len(refRes.Objective) {
		t.Fatalf("resumed curve %d points, reference %d", len(resRes.Objective), len(refRes.Objective))
	}
	for i := range refRes.Objective {
		d := resRes.Objective[i] - refRes.Objective[i]
		if d < -1e-9 || d > 1e-9 {
			t.Errorf("curve diverged at %d: %g vs %g", i, resRes.Objective[i], refRes.Objective[i])
		}
	}
	if len(resRes.Poison) == 0 {
		t.Error("resumed campaign produced no poison")
	}
}
