// Integration tests exercising the whole system across package
// boundaries: dataset → engine → workload → CE model → surrogate →
// generator/detector → attack → optimizer, in one flow per scenario.
package pace

import (
	"context"
	"math/rand"
	"testing"

	"pace/internal/ce"
	"pace/internal/classic"
	"pace/internal/core"
	"pace/internal/defense"
	"pace/internal/experiments"
	"pace/internal/metrics"
	"pace/internal/qopt"
	"pace/internal/query"
	"pace/internal/workload"
)

// TestIntegrationFullAttackChain runs the complete black-box pipeline —
// speculation included — and checks every causal link the paper claims:
// the attack degrades test accuracy, the poisoned estimator degrades the
// optimizer's plans, and the traditional estimators are untouched.
func TestIntegrationFullAttackChain(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	cfg := experiments.Config{Seed: 5}.WithDefaults()
	w, err := experiments.NewWorld("dmv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := w.NewBlackBox(ce.FCN, 1)
	qs := workload.Queries(w.Test)
	cards := experiments.Cards(w.Test)
	before := metrics.Mean(target.QErrors(qs, cards))

	runCfg := core.Config{
		NumPoison: cfg.NumPoison,
		Generator: w.GenCfg(),
		Trainer:   w.TrainerCfg(),
	}
	runCfg.Surrogate.Queries = cfg.TrainQueries
	runCfg.Surrogate.HP = w.HP()
	runCfg.Surrogate.Train = w.TrainCfg()
	runCfg.Speculation.CandidateTrainQueries = cfg.TrainQueries / 2
	runCfg.Speculation.HP = w.HP()
	runCfg.Speculation.Train = w.TrainCfg()

	campaign := &core.Campaign{
		Target: target, Workload: w.WGen, Test: w.Test, History: w.History,
		Config: runCfg, Seed: 5,
	}
	res, err := campaign.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Mean(target.QErrors(qs, cards))
	t.Logf("speculated=%v before=%.2f after=%.2f", res.SpeculatedType, before, after)
	if after <= before {
		t.Errorf("attack did not degrade accuracy: %.3f → %.3f", before, after)
	}

	// Traditional estimators are outside the poisoning channel.
	hist := classic.NewHistogram(w.DS, 32)
	histErr := metrics.Mean(qerrsOf(hist.Estimate, w))
	if histErr > 100 {
		t.Errorf("histogram q-error %.1f implausible", histErr)
	}
}

func qerrsOf(est func(q *query.Query) float64, w *experiments.World) []float64 {
	out := make([]float64, len(w.Test))
	for i, l := range w.Test {
		out[i] = ce.QError(est(l.Q), l.Card)
	}
	return out
}

// TestIntegrationDefenseBlocksPoison trains the future-work defense
// classifier on one attack's poison and shows it screens a SECOND,
// independently trained attack against the same database.
func TestIntegrationDefenseBlocksPoison(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	cfg := experiments.Config{Seed: 5}.WithDefaults()
	w, err := experiments.NewWorld("dmv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	target := w.NewBlackBox(ce.FCN, 1)

	attackPoison := func(off int64) [][]float64 {
		sur := w.NewSurrogate(target, ce.FCN, off)
		tr := w.TrainPACE(sur, nil, off)
		pq, _ := tr.GeneratePoison(context.Background(), cfg.NumPoison)
		enc := make([][]float64, len(pq))
		for i, q := range pq {
			enc[i] = q.Encode(w.DS.Meta)
		}
		return enc
	}

	// Different attack runs converge to different poison modes, so the
	// defender red-teams itself with several independent attacks and
	// pools their poison as training data.
	var trainPoison [][]float64
	for off := int64(1); off <= 3; off++ {
		trainPoison = append(trainPoison, attackPoison(off)...)
	}
	hEnc := experiments.Encodings(w.History, w.DS)
	clf := defense.New(w.DS.Meta.Dim(), defense.Config{}, rand.New(rand.NewSource(5)))
	clf.Train(trainPoison, hEnc)

	// A held-out fresh attack.
	eval := clf.Evaluate(attackPoison(4), experiments.Encodings(w.WGen.Random(100), w.DS))
	t.Logf("defense vs fresh attack: recall=%.2f fpr=%.2f", eval.Recall(), eval.FalsePositiveRate())
	if eval.Recall() < 0.5 {
		t.Errorf("defense recall %.2f too low against a fresh attack", eval.Recall())
	}
	if eval.FalsePositiveRate() > 0.3 {
		t.Errorf("defense false-positive rate %.2f too high", eval.FalsePositiveRate())
	}
}

// TestIntegrationPlanQualityChain verifies the estimate→plan→cost chain
// directly: feeding the optimizer increasingly wrong estimates cannot
// produce cheaper true plans.
func TestIntegrationPlanQualityChain(t *testing.T) {
	cfg := experiments.Config{Seed: 7}.WithDefaults()
	w, err := experiments.NewWorld("tpch", cfg)
	if err != nil {
		t.Fatal(err)
	}
	opt := qopt.New(w.DS, w.Eng)
	var joins []*query.Query
	for _, l := range w.Test {
		if l.Q.NumTables() >= 2 {
			joins = append(joins, l.Q)
		}
	}
	if len(joins) < 5 {
		t.Skip("not enough multi-join queries")
	}
	optimal := opt.Latency(joins, opt.TrueEstimate())
	constant := opt.Latency(joins, func(*query.Query) float64 { return 100 })
	if constant < optimal*(1-1e-9) {
		t.Errorf("constant-estimate plans (%.4g) beat optimal (%.4g)", constant, optimal)
	}
}
