package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"pace/internal/ce"
	"pace/internal/core"
	"pace/internal/engine"
	"pace/internal/experiments"
	"pace/internal/obs"
	"pace/internal/workload"
)

// The campaign workload: cmd/pace's defaults on tpch at scale 1 with the
// model type forced to fcn. The campaign seed is pinned, not drawn from
// --seed, because its degradation and poison must be identical in every
// run; both are checked against the values below.
const (
	campaignDataset = "tpch"
	campaignScale   = 1.0
	campaignSeed    = 1
	// wantDegradation and wantPoisonDigest are the pinned outcome of the
	// campaign above. A change that alters them changes the attack, not
	// just its speed, and the run reports correct=false.
	wantDegradation  = "3.684058958874392"
	wantPoisonDigest = "0fdaf6cd9862f0f4"
)

// campaignRun is one timed Campaign.Run with what it produced.
type campaignRun struct {
	setup       lap // world build + victim training
	world       time.Duration
	victimTrain time.Duration
	run         lap     // Campaign.Run alone
	peakMB      float64 // resident memory during Campaign.Run: peak
	meanMB      float64 // and mean
	res         *core.Result
	victim      *timedTarget
	degradation float64
	digest      string
}

// runCampaign builds a fresh world and victim (a campaign retrains its
// victim, so each run needs its own), then runs one campaign on it. With
// watchMem it also samples the campaign's peak resident memory, starting
// from a collected heap so the peak carries no garbage of the set-up or of
// an earlier campaign. Probes before, between and after the two phases
// time the host's speed (hostspeed.go).
func runCampaign(ctx context.Context, workers int, tel *obs.Telemetry, watchMem bool) (*campaignRun, error) {
	cr := &campaignRun{}
	probeHost()
	setupClock := startClock()
	t0 := time.Now()
	cfg := experiments.Config{Seed: campaignSeed, Scale: campaignScale}.WithDefaults()
	w, err := experiments.NewWorld(campaignDataset, cfg)
	if err != nil {
		return nil, err
	}
	cr.world = time.Since(t0)
	t1 := time.Now()
	cr.victim = &timedTarget{Target: w.NewBlackBox(ce.FCN, 1)}
	cr.victimTrain = time.Since(t1)
	cr.setup = setupClock.stop()
	probeHost()

	qs, cards := workload.Queries(w.Test), experiments.Cards(w.Test)
	before, err := experiments.TargetQErrors(ctx, cr.victim, qs, cards)
	if err != nil {
		return nil, err
	}

	forced := ce.FCN
	runCfg := core.Config{
		NumPoison:       cfg.NumPoison,
		Workers:         workers,
		OracleCacheSize: engine.DefaultOracleCacheSize,
		Generator:       w.GenCfg(),
		Trainer:         w.TrainerCfg(),
		ForceType:       &forced, // speculation off: it times the target
		Telemetry:       tel,
	}
	runCfg.Surrogate.Queries = cfg.TrainQueries
	runCfg.Surrogate.HP = w.HP()
	runCfg.Surrogate.Train = w.TrainCfg()
	runCfg.Speculation.CandidateTrainQueries = cfg.TrainQueries / 2
	runCfg.Speculation.HP = w.HP()
	runCfg.Speculation.Train = w.TrainCfg()
	campaign := &core.Campaign{
		Target:   cr.victim,
		Workload: w.WGen,
		Test:     w.Test,
		History:  w.History,
		Config:   runCfg,
		Seed:     campaignSeed,
	}
	var mem *rssWatch
	if watchMem {
		runtime.GC()
		debug.FreeOSMemory()
		mem = watchRSS()
	}
	runClock := startClock()
	cr.res, err = campaign.Run(ctx)
	cr.run = runClock.stop()
	if mem != nil {
		cr.peakMB, cr.meanMB = mem.end()
	}
	probeHost()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}

	after, err := experiments.TargetQErrors(ctx, cr.victim, qs, cards)
	if err != nil {
		return nil, err
	}
	cr.degradation = mean(after) / mean(before)
	cr.digest = poisonDigest(cr.res)
	return cr, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// poisonDigest hashes the poisoning workload: each query's canonical key
// and the bit pattern of its true cardinality, in order.
func poisonDigest(res *core.Result) string {
	h := sha256.New()
	var b [8]byte
	for i, q := range res.Poison {
		h.Write([]byte(q.Key()))
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.PoisonCards[i]))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkCampaign compares a campaign's outcome with the pinned one.
func checkCampaign(cr *campaignRun) error {
	if got := fmt.Sprint(cr.degradation); got != wantDegradation {
		return fmt.Errorf("degradation %s, pinned %s", got, wantDegradation)
	}
	if cr.digest != wantPoisonDigest {
		return fmt.Errorf("poison digest %s, pinned %s", cr.digest, wantPoisonDigest)
	}
	return nil
}
