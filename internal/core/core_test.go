package core

import (
	"context"
	"math/rand"
	"testing"

	"pace/internal/ce"
	"pace/internal/dataset"
	"pace/internal/detector"
	"pace/internal/engine"
	"pace/internal/generator"
	"pace/internal/metrics"
	"pace/internal/nn"
	"pace/internal/query"
	"pace/internal/surrogate"
	"pace/internal/workload"
)

var bgCtx = context.Background()

type fixture struct {
	wgen *workload.Generator
	rng  *rand.Rand
	sur  *ce.Estimator
	test []ce.Sample
	tw   []workload.Labeled
}

// newFixture builds a small dmv world with a trained FCN surrogate.
func newFixture(t testing.TB, seed int64) *fixture {
	t.Helper()
	ds, err := dataset.Build("dmv", dataset.Config{Scale: 0.05, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	wgen := workload.NewGenerator(ds, engine.New(ds), rng)

	model := ce.New(ce.FCN, ds.Meta, ce.HyperParams{Hidden: 16, Layers: 2}, rng)
	sur := ce.NewEstimator(model, ce.TrainConfig{Epochs: 25, Batch: 16}, rng)
	train := wgen.Random(200)
	sur.Train(sur.MakeSamples(workload.Queries(train), cardsOf(train)))

	tw := wgen.Random(60)
	return &fixture{
		wgen: wgen, rng: rng, sur: sur,
		test: MakeTestSamples(sur, tw),
		tw:   tw,
	}
}

func newTrainer(f *fixture, det *detector.Detector, cfg TrainerConfig) *Trainer {
	// Tests run far fewer generator steps than the paper's 20×20, so the
	// generator learning rate is raised to compensate.
	gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
		generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
	return NewTrainer(f.sur, gen, det, EngineOracle(f.wgen), f.test, cfg, f.rng)
}

func encodeAll(qs []*query.Query, f *fixture) [][]float64 {
	out := make([][]float64, len(qs))
	for i, q := range qs {
		out[i] = q.Encode(f.wgen.DS.Meta)
	}
	return out
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		Clean: "Clean", Random: "Random", LbS: "Lb-S",
		Greedy: "Greedy", LbG: "Lb-G", PACE: "PACE",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if len(Methods()) != 5 || len(AllRows()) != 6 {
		t.Error("method enumerations wrong length")
	}
	if Method(42).String() != "Method(?)" {
		t.Error("unknown method String")
	}
}

// TestHypergradientMatchesNumeric validates the finite-difference HVP
// against a direct numerical derivative of the full pipeline
// v → θ′ = θ − η∇ℓ(θ; v) → L_test(θ′).
func TestHypergradientMatchesNumeric(t *testing.T) {
	f := newFixture(t, 1)
	tr := newTrainer(f, nil, TrainerConfig{Batch: 12, TestBatch: len(f.test)})

	batch := tr.Gen.Generate(12, f.rng)
	samples, ok, _, err := tr.label(bgCtx, batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(filterSamples(samples, ok)) == 0 {
		t.Skip("degenerate batch: all zero-cardinality")
	}
	attack := tr.attackGrads(samples, ok)

	target := -1
	for i := range ok {
		if ok[i] {
			target = i
			break
		}
	}
	ps := f.sur.M.Params()
	snap := nn.TakeSnapshot(ps)
	pipeline := func() float64 {
		snap.Restore(ps)
		valid := filterSamples(samples, ok)
		f.sur.UpdateStep(valid)
		loss, _ := tr.testLossAndGrad(f.test)
		snap.Restore(ps)
		return loss
	}
	numeric := nn.NumericInputGrad(pipeline, samples[target].V, 1e-4)

	got := attack[target]
	// Both sides are approximations; require strong directional
	// agreement rather than element-wise equality.
	cos := metrics.CosineSimilarity(got, numeric)
	if cos < 0.95 {
		t.Errorf("hypergradient direction cosine %.3f, want ≥ 0.95", cos)
	}
	ratio := nn.Norm(got) / (nn.Norm(numeric) + 1e-30)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("hypergradient magnitude ratio %.3f, want within [0.5, 2]", ratio)
	}
}

func TestTrainAcceleratedImprovesAttack(t *testing.T) {
	// Training must (a) restore the surrogate, (b) record the objective
	// curve, and (c) yield a more damaging poisoning workload than the
	// untrained generator produces.
	f := newFixture(t, 5)
	tr := newTrainer(f, nil, TrainerConfig{Batch: 24, InnerIters: 10, OuterIters: 6})

	damage := func(qs []*query.Query, cards []float64) float64 {
		snap := f.sur.Snapshot()
		var valid []ce.Sample
		for i := range qs {
			if cards[i] >= 1 {
				valid = append(valid, ce.Sample{
					V: qs[i].Encode(f.wgen.DS.Meta),
					Y: f.sur.Norm.Norm(cards[i]),
				})
			}
		}
		f.sur.Update(valid)
		loss := f.sur.Loss(f.test)
		f.sur.Restore(snap)
		return loss
	}

	q0, c0 := tr.GeneratePoison(bgCtx, 40)
	before := damage(q0, c0)

	params := nn.FlattenParams(f.sur.M.Params())
	tr.TrainAccelerated(bgCtx)
	if nn.MaxAbsDiff(params, nn.FlattenParams(f.sur.M.Params())) != 0 {
		t.Error("TrainAccelerated did not restore the surrogate parameters")
	}
	if len(tr.Objective) != 6 {
		t.Fatalf("objective curve has %d points, want 6", len(tr.Objective))
	}

	q1, c1 := tr.GeneratePoison(bgCtx, 40)
	after := damage(q1, c1)
	t.Logf("poison damage before=%.6f after=%.6f", before, after)
	if after <= before {
		t.Errorf("training did not improve poison damage: %g → %g", before, after)
	}
}

func TestTrainBasicRunsAndRestores(t *testing.T) {
	f := newFixture(t, 3)
	tr := newTrainer(f, nil, TrainerConfig{Batch: 16, OuterIters: 3, BasicGenSteps: 4})
	before := nn.FlattenParams(f.sur.M.Params())
	tr.TrainBasic(bgCtx)
	if nn.MaxAbsDiff(before, nn.FlattenParams(f.sur.M.Params())) != 0 {
		t.Error("TrainBasic did not restore the surrogate parameters")
	}
	if len(tr.Objective) != 3 {
		t.Errorf("objective curve has %d points, want 3", len(tr.Objective))
	}
}

func TestGeneratePoisonShape(t *testing.T) {
	f := newFixture(t, 4)
	tr := newTrainer(f, nil, TrainerConfig{Batch: 8, InnerIters: 2, OuterIters: 2})
	tr.TrainAccelerated(bgCtx)
	qs, cards := tr.GeneratePoison(bgCtx, 25)
	if len(qs) != 25 || len(cards) != 25 {
		t.Fatalf("got %d/%d, want 25/25", len(qs), len(cards))
	}
	for i, q := range qs {
		if !q.Connected(f.wgen.DS.Joinable) {
			t.Fatalf("poison query %d disconnected", i)
		}
		if cards[i] < 0 {
			t.Fatalf("poison card %d negative", i)
		}
	}
}

func TestPoisoningDegradesBlackBox(t *testing.T) {
	// The end-to-end property behind Figures 6-9: updating a trained CE
	// model with PACE's poisoning queries must raise its test Q-error,
	// and by more than random queries do.
	f := newFixture(t, 5)

	// Build the twin targets from a fixed workload so the comparison is
	// not sensitive to the shared fixture rng's position.
	bbTrain := f.wgen.Random(200)
	mkBB := func(seed int64) *ce.BlackBox {
		rng := rand.New(rand.NewSource(seed))
		model := ce.New(ce.FCN, f.wgen.DS.Meta, ce.HyperParams{Hidden: 16, Layers: 2}, rng)
		est := ce.NewEstimator(model, ce.TrainConfig{Epochs: 30, Batch: 16}, rng)
		est.Train(est.MakeSamples(workload.Queries(bbTrain), cardsOf(bbTrain)))
		return ce.AsBlackBox(est)
	}

	qs := workload.Queries(f.tw)
	cards := cardsOf(f.tw)

	// Proper pipeline: the surrogate imitates the actual target (§4);
	// the gentle incremental update only absorbs poison whose shape the
	// surrogate transferred faithfully.
	sur, err := surrogate.Train(bgCtx, mkBB(100), ce.FCN, f.wgen, surrogate.TrainConfig{
		Queries: 200,
		HP:      ce.HyperParams{Hidden: 16, Layers: 2},
		Train:   ce.TrainConfig{Epochs: 25, Batch: 16},
	}, f.rng)
	if err != nil {
		t.Fatal(err)
	}
	gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable,
		generator.Config{Hidden: 16, LR: 5e-3}, f.rng)
	tr := NewTrainer(sur, gen, nil, EngineOracle(f.wgen),
		sur.MakeSamples(qs, cards),
		TrainerConfig{Batch: 32, InnerIters: 10, OuterIters: 8}, f.rng)
	tr.TrainAccelerated(bgCtx)
	paceQ, paceC := tr.GeneratePoison(bgCtx, 60)

	bb1 := mkBB(100)
	cleanErr := metrics.Mean(bb1.QErrors(qs, cards))
	bb1.ExecuteWorkload(bgCtx, paceQ, paceC)
	paceErr := metrics.Mean(bb1.QErrors(qs, cards))

	bb2 := mkBB(100)
	randQ, randC := RandomPoison(f.wgen, 60)
	bb2.ExecuteWorkload(bgCtx, randQ, randC)
	randErr := metrics.Mean(bb2.QErrors(qs, cards))

	t.Logf("clean=%.2f random=%.2f pace=%.2f", cleanErr, randErr, paceErr)
	if paceErr <= cleanErr {
		t.Errorf("PACE did not degrade the model: clean %.3f → pace %.3f", cleanErr, paceErr)
	}
	if paceErr <= randErr {
		t.Errorf("PACE (%.3f) not stronger than Random (%.3f)", paceErr, randErr)
	}
}

func TestBaselinesProduceValidWorkloads(t *testing.T) {
	f := newFixture(t, 6)

	randQ, randC := RandomPoison(f.wgen, 15)
	lbsQ, lbsC := LbSPoison(f.sur, f.wgen, 15)
	greedyQ, greedyC := GreedyPoison(bgCtx, f.sur, f.wgen, EngineOracle(f.wgen), 10, f.rng)
	gen := generator.New(f.wgen.DS.Meta, f.wgen.DS.Joinable, generator.Config{Hidden: 12}, f.rng)
	lbgQ, lbgC := LbGPoison(bgCtx, f.sur, gen, EngineOracle(f.wgen), LbGConfig{Iters: 10, Batch: 8}, 15, f.rng)

	for _, tc := range []struct {
		name   string
		gotQ   int
		gotC   int
		want   int
		minOne bool
		cards  []float64
	}{
		{"Random", len(randQ), len(randC), 15, true, randC},
		{"Lb-S", len(lbsQ), len(lbsC), 15, true, lbsC},
		{"Greedy", len(greedyQ), len(greedyC), 10, true, greedyC},
		{"Lb-G", len(lbgQ), len(lbgC), 15, false, lbgC},
	} {
		if tc.gotQ != tc.want || tc.gotC != tc.want {
			t.Errorf("%s: got %d queries / %d cards, want %d", tc.name, tc.gotQ, tc.gotC, tc.want)
		}
		if tc.minOne {
			for i, c := range tc.cards {
				if c < 1 {
					t.Errorf("%s card[%d] = %g < 1", tc.name, i, c)
				}
			}
		}
	}
}

func TestLbSSelectsHighLoss(t *testing.T) {
	f := newFixture(t, 7)
	qs, cards := LbSPoison(f.sur, f.wgen, 20)

	selLoss := 0.0
	for i, q := range qs {
		v := q.Encode(f.sur.M.Meta())
		d := f.sur.M.Forward(v) - f.sur.Norm.Norm(cards[i])
		selLoss += d * d
	}
	selLoss /= float64(len(qs))

	pool := f.wgen.Random(100)
	poolLoss := 0.0
	for _, l := range pool {
		v := l.Q.Encode(f.sur.M.Meta())
		d := f.sur.M.Forward(v) - f.sur.Norm.Norm(l.Card)
		poolLoss += d * d
	}
	poolLoss /= float64(len(pool))
	if selLoss <= poolLoss {
		t.Errorf("Lb-S mean loss %.5f not above random pool %.5f", selLoss, poolLoss)
	}
}

func TestCraftPoisonPanicsOnPACE(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	CraftPoison(bgCtx, PACE, nil, nil, generator.Config{}, 1, nil)
}

func TestRunFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline is slow")
	}
	f := newFixture(t, 8)
	rng := rand.New(rand.NewSource(8))
	bbModel := ce.New(ce.FCN, f.wgen.DS.Meta, ce.HyperParams{Hidden: 16, Layers: 2}, rng)
	bbEst := ce.NewEstimator(bbModel, ce.TrainConfig{Epochs: 25, Batch: 16}, rng)
	train := f.wgen.Random(200)
	bbEst.Train(bbEst.MakeSamples(workload.Queries(train), cardsOf(train)))
	bb := ce.AsBlackBox(bbEst)

	history := f.wgen.Random(150)
	qs, cards := workload.Queries(f.tw), cardsOf(f.tw)
	before := metrics.Mean(bb.QErrors(qs, cards))

	forced := ce.FCN
	campaign := &Campaign{Target: bb, Workload: f.wgen, Test: f.tw, History: history, Seed: 8, Config: Config{
		NumPoison: 50,
		ForceType: &forced,
		Surrogate: surrogate.TrainConfig{
			Queries: 150,
			HP:      ce.HyperParams{Hidden: 16, Layers: 2},
			Train:   ce.TrainConfig{Epochs: 20, Batch: 16},
		},
		Generator: generator.Config{Hidden: 16},
		Detector:  detector.Config{Hidden: 16, Epochs: 15},
		Trainer:   TrainerConfig{Batch: 24, InnerIters: 5, OuterIters: 4},
	}}
	res, err := campaign.Run(bgCtx)
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Mean(bb.QErrors(qs, cards))
	t.Logf("before=%.2f after=%.2f train=%v gen=%v attack=%v",
		before, after, res.TrainTime, res.GenTime, res.AttackTime)
	if after <= before {
		t.Errorf("pipeline attack did not degrade the black box: %.3f → %.3f", before, after)
	}
	if res.SpeculatedType != ce.FCN {
		t.Errorf("forced type not honored: %v", res.SpeculatedType)
	}
	if len(res.Poison) != 50 {
		t.Errorf("poison size %d, want 50", len(res.Poison))
	}
	if res.TrainTime <= 0 || res.GenTime <= 0 || res.AttackTime <= 0 {
		t.Error("timings not recorded")
	}
	if len(res.Objective) != 4 {
		t.Errorf("objective curve %d points, want 4", len(res.Objective))
	}
}

func TestDetectorConfrontationReducesDivergence(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	// Fig. 13's property: training WITH the detector yields poisoning
	// queries closer to the historical distribution.
	f := newFixture(t, 9)
	history := f.wgen.Random(200)
	hEnc := make([][]float64, len(history))
	for i, l := range history {
		hEnc[i] = l.Q.Encode(f.wgen.DS.Meta)
	}

	cfg := TrainerConfig{Batch: 24, InnerIters: 6, OuterIters: 5, DetectorWeight: 2}

	trNo := newTrainer(f, nil, cfg)
	trNo.TrainAccelerated(bgCtx)
	qNo, _ := trNo.GeneratePoison(bgCtx, 80)

	det := detector.New(f.wgen.DS.Meta.Dim(), detector.Config{Epochs: 60}, f.rng)
	det.Train(hEnc)
	det.CalibrateThreshold(hEnc, 90)
	f2 := newFixture(t, 9) // fresh surrogate, same world
	trYes := newTrainer(f2, det, cfg)
	trYes.TrainAccelerated(bgCtx)
	qYes, _ := trYes.GeneratePoison(bgCtx, 80)

	dNo := metrics.JSDivergence(hEnc, encodeAll(qNo, f), 10)
	dYes := metrics.JSDivergence(hEnc, encodeAll(qYes, f), 10)
	t.Logf("divergence without detector %.4f, with detector %.4f", dNo, dYes)
	if dYes >= dNo {
		t.Errorf("detector did not reduce divergence: %.4f → %.4f", dNo, dYes)
	}
}
