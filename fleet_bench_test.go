// Fleet-tracing overhead benchmark: the same seeded campaign driven
// through a live pacerouter + paced backend with fleet telemetry off
// (nil Telemetry everywhere — every span/metric call degrades to a nil
// check) versus fully on (per-process tracers writing to io.Discard,
// live registries, per-tenant RED/SLO metering and exemplar capture on
// router and backend). The acceptance budget is enabled-vs-disabled
// overhead < 5% on this remote campaign path; results are recorded in
// BENCH_obs.json.
package pace

import (
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"pace/internal/core"
	"pace/internal/experiments"
	"pace/internal/obs"
	"pace/internal/remote"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
)

func benchFleetCampaign(b *testing.B, traced bool, workers int) {
	const seed = 11
	w, _, runCfg := remoteCampaignWorld(b, seed)

	newTel := func(proc string) *obs.Telemetry {
		if !traced {
			return nil
		}
		tel := &obs.Telemetry{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(io.Discard)}
		tel.Tracer.SetProc(proc)
		return tel
	}

	sCfg := targetserver.Config{Factory: experiments.TenantFactory(experiments.Config{}), Telemetry: newTel("paced")}
	reg := tenant.NewRegistry(sCfg.Factory, sCfg.TenantConfig())
	srv := targetserver.NewMulti(reg, sCfg)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close() //nolint:errcheck
	rt, err := router.New(router.Config{Backends: []string{"http://" + addr}, Telemetry: newTel("pacerouter")})
	if err != nil {
		b.Fatal(err)
	}
	raddr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close() //nolint:errcheck
	rurl := "http://" + raddr

	rc, err := remote.NewClient(rurl, remote.Options{ClientID: "fleet-bench"})
	if err != nil {
		b.Fatal(err)
	}
	admin := rc.Admin()
	defer admin.Close()

	runCfg.Workers = workers
	runCfg.Telemetry = newTel("pace")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Provision a fresh victim off the clock: the benchmark prices the
		// campaign's traced data path, not tenant bring-up.
		b.StopTimer()
		id := fmt.Sprintf("victim-%d", i)
		actx, acancel := context.WithTimeout(context.Background(), 10*time.Minute)
		_, err := admin.CreateTarget(actx, wire.TargetSpec{ID: id, Dataset: "dmv", Model: "fcn", Seed: seed})
		acancel()
		if err != nil {
			b.Fatalf("provisioning %s: %v", id, err)
		}
		b.StartTimer()

		c := core.Campaign{
			TargetURL: rurl + "/v1/targets/" + id, Workload: w.WGen,
			Test: w.Test, History: w.History,
			Config: runCfg, Seed: seed,
		}
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatalf("fleet campaign: %v", err)
		}
	}
}

// BenchmarkFleetTraceOverhead prices fleet-wide tracing on the remote
// campaign path at the worker counts BENCH_obs.json tracks.
func BenchmarkFleetTraceOverhead(b *testing.B) {
	for _, w := range []int{0, 4} {
		b.Run(fmt.Sprintf("disabled/workers=%d", w), func(b *testing.B) { benchFleetCampaign(b, false, w) })
		b.Run(fmt.Sprintf("enabled/workers=%d", w), func(b *testing.B) { benchFleetCampaign(b, true, w) })
	}
}
