package bench

import (
	"context"
	"fmt"
	"time"

	"pace/internal/experiments"
	"pace/internal/loadgen"
	"pace/internal/remote"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
	"pace/internal/wire"
	"pace/internal/workload"
)

// capacityCell sweeps fleet capacity: for each node count it boots that
// many in-process paced backends behind a pacerouter, provisions one
// tenant per node, offers each tenant the cell's rate concurrently, and
// records tenants hosted plus aggregate admitted throughput. The sweep
// is self-contained — it ignores Options.TargetURL and builds its own
// fleet, so the 1→2→4 scaling row is reproducible anywhere.
func (r *runner) capacityCell(ctx context.Context, c Cell, off int64) ([]Record, error) {
	model := c.Model
	if model == "" {
		model = "linear"
	}
	ds := c.Dataset
	if ds == "" {
		ds = "dmv"
	}
	qps := c.QPS
	if qps <= 0 {
		qps = 150
	}
	dur := time.Duration(c.DurationSec * float64(time.Second))
	if dur <= 0 {
		dur = 4 * time.Second
	}

	// A workload-shaped sweep plans one stream and offers it to every
	// tenant lane — per-lane firing identities keep the server's view
	// per-client, and equal plans keep the scaling row comparable.
	var sched *loadgen.Schedule
	if c.Workload != "" {
		w, err := r.world(ds)
		if err != nil {
			return nil, err
		}
		wc := c
		wc.QPS = qps
		sched, err = r.cellSchedule(wc, w, off, dur)
		if err != nil {
			return nil, err
		}
	}

	var out []Record
	for _, n := range c.Nodes {
		if n <= 0 {
			return nil, fmt.Errorf("bench: capacity cell %q has node count %d", c.ID(), n)
		}
		rec, err := r.capacityPoint(ctx, c, ds, model, n, qps, dur, sched)
		if err != nil {
			return out, fmt.Errorf("nodes=%d: %w", n, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

func (r *runner) capacityPoint(ctx context.Context, c Cell, ds, model string, n int, qps float64, dur time.Duration, sched *loadgen.Schedule) (Record, error) {
	factory := experiments.TenantFactory(r.cfg)

	var urls []string
	var servers []*targetserver.Server
	defer func() {
		for _, srv := range servers {
			srv.Close() //nolint:errcheck
		}
	}()
	for i := 0; i < n; i++ {
		scfg := targetserver.Config{Factory: factory}
		srv := targetserver.NewMulti(tenant.NewRegistry(scfg.Factory, scfg.TenantConfig()), scfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			return Record{}, err
		}
		servers = append(servers, srv)
		urls = append(urls, "http://"+addr)
	}
	rt, err := router.New(router.Config{Backends: urls})
	if err != nil {
		return Record{}, err
	}
	raddr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		return Record{}, err
	}
	defer rt.Close() //nolint:errcheck
	rurl := "http://" + raddr

	// One tenant per node: fleet capacity is claimed in tenants hosted
	// and aggregate admitted throughput, both of which should scale
	// linearly while per-tenant latency stays flat.
	client, err := remote.NewClient(rurl, remote.Options{
		ClientID: "pacebench-capacity", CoalesceWindow: 0,
	})
	if err != nil {
		return Record{}, err
	}
	defer client.Close()
	admin := client.Admin()
	w, err := r.world(ds)
	if err != nil {
		return Record{}, err
	}
	var lanes []loadgen.Lane
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("cap-%d-%d", n, i)
		if _, err := admin.CreateTarget(ctx, wire.TargetSpec{
			ID: id, Dataset: ds, Model: model,
			Seed: r.cfg.Seed, SeedOffset: int64(i + 1), Scale: r.cfg.Scale,
		}); err != nil {
			return Record{}, fmt.Errorf("provisioning %s: %w", id, err)
		}
		t := client.Target(id)
		lane := loadgen.Lane{
			Target:  id,
			Est:     t.EstimateContext,
			Stats:   t.Stats,
			Queries: workload.Queries(w.Test),
			Config:  loadgen.Config{QPS: qps, Duration: dur},
		}
		if sched != nil {
			lane.Schedule = sched
			lane.FireAs, lane.Stats = fireVia(client, id, t)
		}
		lanes = append(lanes, lane)
	}

	start := time.Now()
	ledger := loadgen.RunLanes(ctx, lanes)
	agg := ledger.Aggregate()

	rec := Record{
		Cell:    fmt.Sprintf("%s-nodes-%d", c.ID(), n),
		Kind:    "capacity",
		Seed:    r.cfg.Seed,
		Dataset: ds, Model: model, Codec: agg.Codec,
		Workload:      c.Workload,
		Nodes:         n,
		TenantsHosted: n,
		WallSec:       time.Since(start).Seconds(),
		Throughput:    agg.AchievedQPS,
		LatencyMsP50:  agg.LatencyMsP50,
		LatencyMsP90:  agg.LatencyMsP90,
		LatencyMsP99:  agg.LatencyMsP99,
		Offered:       agg.Offered,
		Sent:          agg.Sent,
		OK:            agg.OK,
		Shed:          agg.Shed,
		Errors:        agg.Errors + agg.Unavailable + agg.Invalid,
		ClientDropped: agg.ClientDropped,
		WireBytesOut:  agg.WireBytesOut,
		WireBytesIn:   agg.WireBytesIn,
		Extra:         classColumns(agg),
	}
	return rec, nil
}
