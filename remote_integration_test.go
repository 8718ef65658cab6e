// Remote integration tests: the full PACE campaign driven over the wire
// — RemoteTarget → HTTP → targetserver → black box — must be
// indistinguishable from the in-process campaign. The wire carries
// estimates and cardinalities as exact float64 bit patterns, so for a
// fixed seed the two runs are not merely close: speculation verdict,
// convergence curve, poison workload and final damage are bit-identical.
package pace

import (
	"context"
	"math"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pace/internal/ce"
	"pace/internal/core"
	"pace/internal/experiments"
	"pace/internal/faults"
	"pace/internal/loadgen"
	"pace/internal/metrics"
	"pace/internal/remote"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/workload"
)

// remoteCampaignWorld builds one side of the comparison: a world, its
// trained black-box victim, and the campaign config. Both sides call it
// with the same seed, yielding twin victims with identical weights.
func remoteCampaignWorld(t testing.TB, seed int64) (*experiments.World, *ce.BlackBox, core.Config) {
	t.Helper()
	cfg := experiments.Config{Seed: seed}.WithDefaults()
	w, err := experiments.NewWorld("dmv", cfg)
	if err != nil {
		t.Fatal(err)
	}
	bb := w.NewBlackBox(ce.FCN, 1)
	// ForceType: speculation's verdict rides a latency side-channel
	// (probe timing), which a network hop legitimately perturbs. The
	// determinism contract covers everything downstream of the verdict,
	// so the comparison pins the type and exercises that.
	fcn := ce.FCN
	runCfg := core.Config{
		NumPoison: cfg.NumPoison,
		ForceType: &fcn,
		Generator: w.GenCfg(),
		Trainer:   w.TrainerCfg(),
	}
	runCfg.Surrogate.Queries = cfg.TrainQueries
	runCfg.Surrogate.HP = w.HP()
	runCfg.Surrogate.Train = w.TrainCfg()
	return w, bb, runCfg
}

func meanQErr(bb *ce.BlackBox, w *experiments.World) float64 {
	return metrics.Mean(bb.QErrors(workload.Queries(w.Test), experiments.Cards(w.Test)))
}

// TestIntegrationRemoteCampaignMatchesInProcess runs the same seeded
// campaign twice — once against the victim in-process, once against its
// twin served by targetserver over real HTTP — and requires bit-equal
// results end to end.
func TestIntegrationRemoteCampaignMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11

	wLocal, bbLocal, cfgLocal := remoteCampaignWorld(t, seed)
	wRemote, bbRemote, cfgRemote := remoteCampaignWorld(t, seed)

	// Twin check: before any attack the two victims answer identically.
	beforeLocal, beforeRemote := meanQErr(bbLocal, wLocal), meanQErr(bbRemote, wRemote)
	if math.Float64bits(beforeLocal) != math.Float64bits(beforeRemote) {
		t.Fatalf("twin victims disagree before attack: %v vs %v", beforeLocal, beforeRemote)
	}

	srv := targetserver.New(bbRemote, wRemote.DS.Meta, targetserver.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	local := core.Campaign{
		Target: bbLocal, Workload: wLocal.WGen,
		Test: wLocal.Test, History: wLocal.History,
		Config: cfgLocal, Seed: seed,
	}
	resLocal, err := local.Run(context.Background())
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}

	over := core.Campaign{
		TargetURL: hs.URL, Workload: wRemote.WGen,
		Test: wRemote.Test, History: wRemote.History,
		Config: cfgRemote, Seed: seed,
	}
	resRemote, err := over.Run(context.Background())
	if err != nil {
		t.Fatalf("remote campaign: %v", err)
	}

	if resLocal.SpeculatedType != resRemote.SpeculatedType {
		t.Errorf("speculation verdict differs: %v in-process vs %v remote",
			resLocal.SpeculatedType, resRemote.SpeculatedType)
	}
	if len(resLocal.Objective) != len(resRemote.Objective) {
		t.Fatalf("objective curves differ in length: %d vs %d",
			len(resLocal.Objective), len(resRemote.Objective))
	}
	for i := range resLocal.Objective {
		if math.Float64bits(resLocal.Objective[i]) != math.Float64bits(resRemote.Objective[i]) {
			t.Fatalf("objective diverges at loop %d: %v vs %v (wire not bit-exact?)",
				i, resLocal.Objective[i], resRemote.Objective[i])
		}
	}
	if len(resLocal.Poison) != len(resRemote.Poison) {
		t.Fatalf("poison sizes differ: %d vs %d", len(resLocal.Poison), len(resRemote.Poison))
	}
	for i := range resLocal.Poison {
		if resLocal.Poison[i].Key() != resRemote.Poison[i].Key() {
			t.Fatalf("poison query %d differs across transports", i)
		}
		if math.Float64bits(resLocal.PoisonCards[i]) != math.Float64bits(resRemote.PoisonCards[i]) {
			t.Fatalf("poison card %d differs: %v vs %v",
				i, resLocal.PoisonCards[i], resRemote.PoisonCards[i])
		}
	}

	// The poison crossed the wire into the remote victim's retraining;
	// both twins must land on the bit-identical post-attack damage.
	afterLocal, afterRemote := meanQErr(bbLocal, wLocal), meanQErr(bbRemote, wRemote)
	t.Logf("q-error before=%.3f after: in-process=%.3f remote=%.3f",
		beforeLocal, afterLocal, afterRemote)
	if math.Float64bits(afterLocal) != math.Float64bits(afterRemote) {
		t.Errorf("post-attack q-error differs: %v in-process vs %v remote", afterLocal, afterRemote)
	}
	if afterLocal <= beforeLocal {
		t.Errorf("attack did not degrade accuracy: %.3f → %.3f", beforeLocal, afterLocal)
	}
}

// TestIntegrationRemoteCampaignBinarySyncBitExact is the protocol v2
// acceptance run: the campaign crosses the wire on the binary codec,
// its poison delivered as one synchronous execute, fault-free, and must
// still be bit-identical to the in-process reference — the codec and
// the tokened execute cost zero bits.
func TestIntegrationRemoteCampaignBinarySyncBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11

	wLocal, bbLocal, cfgLocal := remoteCampaignWorld(t, seed)
	wRemote, bbRemote, cfgRemote := remoteCampaignWorld(t, seed)

	srv := targetserver.New(bbRemote, wRemote.DS.Meta, targetserver.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	local := core.Campaign{
		Target: bbLocal, Workload: wLocal.WGen,
		Test: wLocal.Test, History: wLocal.History,
		Config: cfgLocal, Seed: seed,
	}
	resLocal, err := local.Run(context.Background())
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}

	over := core.Campaign{
		TargetURL: hs.URL, Workload: wRemote.WGen,
		Test: wRemote.Test, History: wRemote.History,
		Config: cfgRemote, Seed: seed,
		Remote: remote.Options{
			Codec:    "binary",
			ClientID: "binary-sync-acceptance",
		},
	}
	resRemote, err := over.Run(context.Background())
	if err != nil {
		t.Fatalf("binary campaign: %v", err)
	}

	if resLocal.SpeculatedType != resRemote.SpeculatedType {
		t.Errorf("speculation verdict differs: %v in-process vs %v binary",
			resLocal.SpeculatedType, resRemote.SpeculatedType)
	}
	if len(resLocal.Objective) != len(resRemote.Objective) {
		t.Fatalf("objective curves differ in length: %d vs %d",
			len(resLocal.Objective), len(resRemote.Objective))
	}
	for i := range resLocal.Objective {
		if math.Float64bits(resLocal.Objective[i]) != math.Float64bits(resRemote.Objective[i]) {
			t.Fatalf("objective diverges at loop %d: %v vs %v (binary frame not bit-exact?)",
				i, resLocal.Objective[i], resRemote.Objective[i])
		}
	}
	if len(resLocal.Poison) != len(resRemote.Poison) {
		t.Fatalf("poison sizes differ: %d vs %d", len(resLocal.Poison), len(resRemote.Poison))
	}
	for i := range resLocal.Poison {
		if resLocal.Poison[i].Key() != resRemote.Poison[i].Key() {
			t.Fatalf("poison query %d differs across transports", i)
		}
		if math.Float64bits(resLocal.PoisonCards[i]) != math.Float64bits(resRemote.PoisonCards[i]) {
			t.Fatalf("poison card %d differs: %v vs %v",
				i, resLocal.PoisonCards[i], resRemote.PoisonCards[i])
		}
	}

	afterLocal, afterRemote := meanQErr(bbLocal, wLocal), meanQErr(bbRemote, wRemote)
	t.Logf("binary q-error after attack: in-process=%.3f remote=%.3f", afterLocal, afterRemote)
	if math.Float64bits(afterLocal) != math.Float64bits(afterRemote) {
		t.Errorf("post-attack q-error differs: %v in-process vs %v binary",
			afterLocal, afterRemote)
	}
}

// TestIntegrationRemoteCampaignUnderFaults composes the fault injector
// with the remote transport: a flaky client-side network plus the real
// HTTP hop, with the campaign's retry layer recovering. The attack must
// still land.
func TestIntegrationRemoteCampaignUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11
	w, bb, runCfg := remoteCampaignWorld(t, seed)
	before := meanQErr(bb, w)

	srv := targetserver.New(bb, w.DS.Meta, targetserver.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	runCfg.Faults = faults.NewInjector(faults.Flaky(), seed)
	c := core.Campaign{
		TargetURL: hs.URL, Workload: w.WGen,
		Test: w.Test, History: w.History,
		Config: runCfg, Seed: seed,
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("faulted remote campaign: %v", err)
	}
	if res.FaultCounters == nil || res.FaultCounters.Failures() == 0 {
		t.Fatalf("flaky profile injected nothing: %+v", res.FaultCounters)
	}
	after := meanQErr(bb, w)
	t.Logf("faulted remote attack: before=%.3f after=%.3f injected failures=%d",
		before, after, res.FaultCounters.Failures())
	if after <= before {
		t.Errorf("attack through faults+wire did not degrade accuracy: %.3f → %.3f", before, after)
	}
}

// isolationRun executes one arm of the tenant-isolation comparison: a
// two-tenant paced hosting the victim as tenant "a" and an unrelated
// Linear world as tenant "b", with the seeded campaign routed at a. When
// hammer is true, an open-loop load generator floods b's estimate
// endpoint for the whole campaign. Returns the campaign result and the
// victim's post-attack mean q-error.
func isolationRun(t *testing.T, seed int64, hammer bool) (*core.Result, float64) {
	t.Helper()
	w, bb, runCfg := remoteCampaignWorld(t, seed)

	cfg := targetserver.Config{}
	reg := tenant.NewRegistry(nil, cfg.TenantConfig())
	if _, err := reg.Add(tenant.Spec{ID: "a"}, bb, w.DS.Meta); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(tenant.Spec{ID: "b"}, w.NewBlackBox(ce.Linear, 2), w.DS.Meta); err != nil {
		t.Fatal(err)
	}
	srv := targetserver.NewMulti(reg, cfg)
	hs := httptest.NewServer(srv.Handler())
	defer func() {
		hs.Close()
		srv.Close()
	}()

	lctx, lcancel := context.WithCancel(context.Background())
	defer lcancel()
	var (
		lwg sync.WaitGroup
		rep loadgen.Report
	)
	if hammer {
		rc, err := remote.NewClient(hs.URL, remote.Options{ClientID: "hammer"})
		if err != nil {
			t.Fatal(err)
		}
		rt := rc.Target("b")
		defer rt.Close()
		lwg.Add(1)
		go func() {
			defer lwg.Done()
			rep = loadgen.Run(lctx, rt.EstimateContext, workload.Queries(w.History), loadgen.Config{
				QPS:      200,
				Duration: 10 * time.Minute, // canceled when the campaign ends
			})
		}()
	}

	c := core.Campaign{
		TargetURL: hs.URL + "/v1/targets/a", Workload: w.WGen,
		Test: w.Test, History: w.History,
		Config: runCfg, Seed: seed,
	}
	res, err := c.Run(context.Background())
	lcancel()
	lwg.Wait()
	if err != nil {
		t.Fatalf("campaign (hammer=%v): %v", hammer, err)
	}
	if hammer && rep.OK == 0 {
		t.Fatalf("load generator landed no traffic on tenant b: %+v", rep)
	}
	if hammer {
		t.Logf("tenant b absorbed %d estimates (%d shed) during the attack on a", rep.OK, rep.Shed)
	}
	return res, meanQErr(bb, w)
}

// TestIntegrationTenantIsolationDeterminism is the multi-tenant
// determinism contract: a fixed-seed campaign against tenant A is
// bit-identical whether or not tenant B on the same paced is being
// hammered concurrently. Per-tenant model goroutines and admission
// queues mean B's load can cost A only latency, never bits.
func TestIntegrationTenantIsolationDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11

	// The in-process reference: a third twin world, no server at all.
	wIP, bbIP, cfgIP := remoteCampaignWorld(t, seed)
	ip := core.Campaign{
		Target: bbIP, Workload: wIP.WGen,
		Test: wIP.Test, History: wIP.History,
		Config: cfgIP, Seed: seed,
	}
	ipRes, err := ip.Run(context.Background())
	if err != nil {
		t.Fatalf("in-process campaign: %v", err)
	}
	afterIP := meanQErr(bbIP, wIP)

	quiet, afterQuiet := isolationRun(t, seed, false)
	loaded, afterLoaded := isolationRun(t, seed, true)

	// The loaded remote run must match the in-process reference, not just
	// the quiet remote run: tenancy + concurrent load cost zero bits.
	if len(ipRes.Poison) != len(loaded.Poison) {
		t.Fatalf("in-process vs loaded poison sizes differ: %d vs %d",
			len(ipRes.Poison), len(loaded.Poison))
	}
	for i := range ipRes.Poison {
		if ipRes.Poison[i].Key() != loaded.Poison[i].Key() {
			t.Fatalf("poison query %d differs between in-process and loaded remote", i)
		}
	}
	if math.Float64bits(afterIP) != math.Float64bits(afterLoaded) {
		t.Errorf("post-attack q-error: in-process %v vs loaded remote %v", afterIP, afterLoaded)
	}

	if quiet.SpeculatedType != loaded.SpeculatedType {
		t.Errorf("speculation verdict differs under load: %v vs %v",
			quiet.SpeculatedType, loaded.SpeculatedType)
	}
	if len(quiet.Objective) != len(loaded.Objective) {
		t.Fatalf("objective curves differ in length: %d vs %d",
			len(quiet.Objective), len(loaded.Objective))
	}
	for i := range quiet.Objective {
		if math.Float64bits(quiet.Objective[i]) != math.Float64bits(loaded.Objective[i]) {
			t.Fatalf("objective diverges at loop %d under load: %v vs %v",
				i, quiet.Objective[i], loaded.Objective[i])
		}
	}
	if len(quiet.Poison) != len(loaded.Poison) {
		t.Fatalf("poison sizes differ: %d vs %d", len(quiet.Poison), len(loaded.Poison))
	}
	for i := range quiet.Poison {
		if quiet.Poison[i].Key() != loaded.Poison[i].Key() {
			t.Fatalf("poison query %d differs under load", i)
		}
		if math.Float64bits(quiet.PoisonCards[i]) != math.Float64bits(loaded.PoisonCards[i]) {
			t.Fatalf("poison card %d differs under load: %v vs %v",
				i, quiet.PoisonCards[i], loaded.PoisonCards[i])
		}
	}
	t.Logf("post-attack q-error: quiet=%.3f loaded=%.3f", afterQuiet, afterLoaded)
	if math.Float64bits(afterQuiet) != math.Float64bits(afterLoaded) {
		t.Errorf("post-attack q-error differs under load: %v vs %v", afterQuiet, afterLoaded)
	}
}
