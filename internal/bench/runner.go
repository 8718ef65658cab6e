package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/core"
	"pace/internal/experiments"
	"pace/internal/faults"
	"pace/internal/loadgen"
	"pace/internal/metrics"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/wire"
	"pace/internal/workload"
)

// rowSeedK decorrelates per-cell RNG streams the way the experiments
// matrix decorrelates its rows: every cell draws its baseline poison
// from a private rng seeded by (suite seed, constant, cell offset).
const rowSeedK int64 = 86028121

// Options shapes one suite run.
type Options struct {
	// TargetURL, when set, runs attack and load cells against a live
	// fleet (paced or pacerouter) at this base URL: each cell provisions
	// its own tenant over the admin API and tears it down. Empty runs
	// everything in-process.
	TargetURL string
	// AuthToken authenticates against a fleet running -auth-tokens.
	AuthToken string
	// Workers bounds campaign parallelism (0 serial; results are
	// bit-identical at any setting).
	Workers int
	// GitRev and When stamp every record's provenance.
	GitRev string
	When   string
	// Log, when set, receives one progress line per cell.
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// countingTarget wraps any ce.Target with the harness's uniform
// measurement: estimate-call latency lands in an obs histogram, and the
// call/query counts behind the throughput column are tracked atomically.
type countingTarget struct {
	inner     ce.Target
	hist      *obs.Histogram
	estimates atomic.Int64
	executed  atomic.Int64
}

func (t *countingTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	t0 := time.Now()
	v, err := t.inner.EstimateContext(ctx, q)
	t.hist.Observe(time.Since(t0).Seconds())
	t.estimates.Add(1)
	return v, err
}

func (t *countingTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	err := t.inner.ExecuteWorkload(ctx, qs, cards)
	if err == nil {
		t.executed.Add(int64(len(qs)))
	}
	return err
}

// calls is the total target interactions the throughput column counts.
func (t *countingTarget) calls() int64 { return t.estimates.Load() + t.executed.Load() }

// latencyMs reads the bucketed percentile estimates out of the
// histogram, in milliseconds.
func (t *countingTarget) latencyMs(q float64) float64 { return t.hist.Quantile(q) * 1e3 }

// runner carries the per-suite state: the resolved profile and the
// world cache (one world per dataset — cells of the same dataset share
// the materialized tables and workloads).
type runner struct {
	suite  Suite
	cfg    experiments.Config
	opts   Options
	worlds map[string]*experiments.World
}

// Config maps the suite's profile knobs onto the experiments package.
func (s Suite) Config(workers int) experiments.Config {
	return experiments.Config{
		Seed:         s.Seed,
		Scale:        s.Scale,
		TrainQueries: s.TrainQueries,
		TestQueries:  s.TestQueries,
		Epochs:       s.Epochs,
		Inner:        s.Inner,
		Outer:        s.Outer,
		NumPoison:    s.NumPoison,
		Workers:      workers,
	}.WithDefaults()
}

// RunSuite executes every cell of the suite and returns one record per
// measurement (capacity cells emit one record per fleet size). Cell
// seeds are pure functions of the suite seed and the cell's position,
// so two runs of the same suite are directly comparable — attack
// efficacy is bit-identical across machines, speed is not.
func RunSuite(ctx context.Context, s Suite, opts Options) ([]Record, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	r := &runner{suite: s, cfg: s.Config(opts.Workers), opts: opts,
		worlds: make(map[string]*experiments.World)}

	var out []Record
	for i, c := range s.Cells {
		if err := ctx.Err(); err != nil {
			return out, err
		}
		start := time.Now()
		var (
			recs []Record
			err  error
		)
		switch c.Kind {
		case "attack":
			var rec Record
			rec, err = r.attackCell(ctx, c, int64(i+1))
			recs = []Record{rec}
		case "load":
			var rec Record
			rec, err = r.loadCell(ctx, c, int64(i+1))
			recs = []Record{rec}
		case "capacity":
			recs, err = r.capacityCell(ctx, c, int64(i+1))
		}
		if err != nil {
			return out, fmt.Errorf("bench: cell %s: %w", c.ID(), err)
		}
		for j := range recs {
			recs[j].Suite = s.Name
			recs[j].GitRev = r.opts.GitRev
			recs[j].When = r.opts.When
			if err := recs[j].Validate(); err != nil {
				return out, err
			}
		}
		out = append(out, recs...)
		opts.logf("cell %-40s %8.2fs", c.ID(), time.Since(start).Seconds())
	}
	return out, nil
}

// world returns the (cached) world of a dataset.
func (r *runner) world(name string) (*experiments.World, error) {
	if w, ok := r.worlds[name]; ok {
		return w, nil
	}
	w, err := experiments.NewWorld(name, r.cfg)
	if err != nil {
		return nil, err
	}
	r.worlds[name] = w
	return w, nil
}

// provision creates a dedicated tenant for one cell at the fleet under
// test and returns its routed target plus a teardown. The tenant's
// (seed, seed offset, scale) make the server-built victim the
// bit-identical twin of the in-process one.
func (r *runner) provision(ctx context.Context, id, dataset, model, codec string, off int64) (*remote.RemoteTarget, func(), error) {
	client, err := remote.NewClient(r.opts.TargetURL, remote.Options{
		ClientID:  "pacebench",
		AuthToken: r.opts.AuthToken,
		Codec:     codec,
	})
	if err != nil {
		return nil, nil, err
	}
	admin := client.Admin()
	if _, err := admin.CreateTarget(ctx, wire.TargetSpec{
		ID: id, Dataset: dataset, Model: model,
		Seed: r.cfg.Seed, SeedOffset: off, Scale: r.cfg.Scale,
	}); err != nil {
		client.Close()
		return nil, nil, fmt.Errorf("provisioning %s: %w", id, err)
	}
	teardown := func() {
		admin.DeleteTarget(ctx, id) //nolint:errcheck // best-effort cleanup
		client.Close()
	}
	return client.Target(id), teardown, nil
}

// attackCell runs one poisoning campaign — baseline method or full
// PACE — against an in-process victim or a provisioned tenant, and
// records efficacy (before/after q-error, degradation) next to speed
// (wall, throughput, latency percentiles) and wire bytes.
func (r *runner) attackCell(ctx context.Context, c Cell, off int64) (Record, error) {
	typ, err := ce.ParseType(c.Model)
	if err != nil {
		return Record{}, err
	}
	method, err := parseMethod(c.Method)
	if err != nil {
		return Record{}, err
	}
	w, err := r.world(c.Dataset)
	if err != nil {
		return Record{}, err
	}

	rec := Record{
		Cell: c.ID(), Kind: "attack", Seed: r.cfg.Seed,
		Dataset: c.Dataset, Model: c.Model, Method: c.Method, Faults: c.Faults,
		Codec: "local",
	}
	reg := obs.NewRegistry()
	ct := &countingTarget{hist: reg.Histogram("bench_target_latency_seconds")}

	var rt *remote.RemoteTarget
	if r.opts.TargetURL == "" {
		ct.inner = w.NewBlackBox(typ, off)
	} else {
		codec := c.Codec
		if codec == "" {
			codec = "binary"
		}
		rec.Codec = codec
		id := fmt.Sprintf("bench-%s-%s", r.suite.Name, c.ID())
		target, teardown, err := r.provision(ctx, id, c.Dataset, c.Model, codec, off)
		if err != nil {
			return Record{}, err
		}
		defer teardown()
		rt, ct.inner = target, target
	}
	var wireBefore remote.Stats
	if rt != nil {
		wireBefore = rt.Stats()
	}

	qs := workload.Queries(w.Test)
	cards := experiments.Cards(w.Test)
	start := time.Now()

	beforeErrs, err := experiments.TargetQErrors(ctx, ct, qs, cards)
	if err != nil {
		return Record{}, fmt.Errorf("clean evaluation: %w", err)
	}
	before := metrics.Summarize(beforeErrs)

	var injector *faults.Injector
	if c.Faults != "" && c.Faults != "none" {
		prof, err := faults.ByName(c.Faults)
		if err != nil {
			return Record{}, err
		}
		injector = faults.NewInjector(prof, r.cfg.Seed)
	}

	if method == core.PACE {
		runCfg := core.Config{
			NumPoison: r.cfg.NumPoison,
			Workers:   r.opts.Workers,
			ForceType: &typ,
			Generator: w.GenCfg(),
			Trainer:   w.TrainerCfg(),
			Faults:    injector,
		}
		runCfg.Surrogate.Queries = r.cfg.TrainQueries
		runCfg.Surrogate.HP = w.HP()
		runCfg.Surrogate.Train = w.TrainCfg()
		campaign := &core.Campaign{
			Target:   ct,
			Workload: w.WGen,
			Test:     w.Test,
			History:  w.History,
			Config:   runCfg,
			Seed:     r.cfg.Seed + off,
		}
		if _, err := campaign.Run(ctx); err != nil {
			return Record{}, fmt.Errorf("campaign: %w", err)
		}
	} else {
		// Baseline crafts poison against a surrogate trained on the clean
		// channel; an injected fault profile perturbs only the poison
		// delivery (the update surface), mirroring a flaky production
		// feedback path.
		sur, err := w.NewSurrogateTarget(ct, typ, off)
		if err != nil {
			return Record{}, fmt.Errorf("surrogate: %w", err)
		}
		rowRng := rand.New(rand.NewSource(r.cfg.Seed*rowSeedK + off))
		pq, pc := core.CraftPoison(ctx, method, sur, w.WGen.WithRng(rowRng),
			w.GenCfg(), r.cfg.NumPoison, rowRng)
		exec := ce.Target(ct)
		if injector != nil {
			exec = injector.WrapTarget(ct)
		}
		if err := exec.ExecuteWorkload(ctx, pq, pc); err != nil {
			return Record{}, fmt.Errorf("poison delivery: %w", err)
		}
	}

	afterErrs, err := experiments.TargetQErrors(ctx, ct, qs, cards)
	if err != nil {
		return Record{}, fmt.Errorf("post-attack evaluation: %w", err)
	}
	after := metrics.Summarize(afterErrs)

	rec.WallSec = time.Since(start).Seconds()
	if rec.WallSec > 0 {
		rec.Throughput = float64(ct.calls()) / rec.WallSec
	}
	rec.LatencyMsP50 = ct.latencyMs(0.5)
	rec.LatencyMsP90 = ct.latencyMs(0.9)
	rec.LatencyMsP99 = ct.latencyMs(0.99)
	rec.QErrBefore, rec.QErrAfter = &before, &after
	if before.Mean > 0 {
		rec.Degradation = after.Mean / before.Mean
	}
	if rt != nil {
		st := rt.Stats()
		rec.WireBytesOut = st.BytesOut - wireBefore.BytesOut
		rec.WireBytesIn = st.BytesIn - wireBefore.BytesIn
	}
	return rec, nil
}

// loadCell replays the dataset's test workload at the cell's offered
// rate — a uniform open loop, or (with Workload set) a planned
// workloadgen stream at the same mean rate — and records what the
// target did with it.
func (r *runner) loadCell(ctx context.Context, c Cell, off int64) (Record, error) {
	typ, err := ce.ParseType(c.Model)
	if err != nil {
		return Record{}, err
	}
	w, err := r.world(c.Dataset)
	if err != nil {
		return Record{}, err
	}
	qs := workload.Queries(w.Test)
	lcfg := loadgen.Config{QPS: c.QPS, Duration: time.Duration(c.DurationSec * float64(time.Second))}

	rec := Record{
		Cell: c.ID(), Kind: "load", Seed: r.cfg.Seed,
		Dataset: c.Dataset, Model: c.Model, Faults: c.Faults, Codec: "local",
		Workload: c.Workload,
	}
	lane := loadgen.Lane{Target: c.ID(), Queries: qs, Config: lcfg}
	if c.Workload != "" {
		dur := lcfg.Duration
		if dur <= 0 {
			dur = 10 * time.Second
		}
		sched, err := r.cellSchedule(c, w, off, dur)
		if err != nil {
			return Record{}, err
		}
		lane.Schedule = sched
	}
	if r.opts.TargetURL == "" {
		bb := w.NewBlackBox(typ, off)
		target := ce.Target(bb)
		if c.Faults != "" && c.Faults != "none" {
			prof, err := faults.ByName(c.Faults)
			if err != nil {
				return Record{}, err
			}
			target = faults.NewInjector(prof, r.cfg.Seed).WrapTarget(bb)
		}
		lane.Est = target.EstimateContext
	} else {
		codec := c.Codec
		if codec == "" {
			codec = "binary"
		}
		rec.Codec = codec
		id := fmt.Sprintf("bench-%s-%s", r.suite.Name, c.ID())
		client, err := remote.NewClient(r.opts.TargetURL, remote.Options{
			ClientID: "pacebench-load", AuthToken: r.opts.AuthToken,
			Codec: codec, CoalesceWindow: 0, // off: one wire round trip per sample
		})
		if err != nil {
			return Record{}, err
		}
		defer client.Close()
		admin := client.Admin()
		if _, err := admin.CreateTarget(ctx, wire.TargetSpec{
			ID: id, Dataset: c.Dataset, Model: c.Model,
			Seed: r.cfg.Seed, SeedOffset: off, Scale: r.cfg.Scale,
		}); err != nil {
			return Record{}, fmt.Errorf("provisioning %s: %w", id, err)
		}
		defer admin.DeleteTarget(ctx, id) //nolint:errcheck // best-effort cleanup
		rt := client.Target(id)
		lane.Est = rt.EstimateContext
		lane.Stats = rt.Stats
		if lane.Schedule != nil {
			lane.FireAs, lane.Stats = fireVia(client, id, rt)
		}
	}

	start := time.Now()
	ledger := loadgen.RunLanes(ctx, []loadgen.Lane{lane})
	rep := ledger[c.ID()]

	rec.WallSec = time.Since(start).Seconds()
	rec.Throughput = rep.AchievedQPS
	rec.LatencyMsP50 = rep.LatencyMsP50
	rec.LatencyMsP90 = rep.LatencyMsP90
	rec.LatencyMsP99 = rep.LatencyMsP99
	rec.Offered, rec.Sent, rec.OK, rec.Shed = rep.Offered, rep.Sent, rep.OK, rep.Shed
	rec.Errors = rep.Errors + rep.Unavailable + rep.Invalid
	rec.ClientDropped = rep.ClientDropped
	rec.WireBytesOut, rec.WireBytesIn = rep.WireBytesOut, rep.WireBytesIn
	rec.Extra = classColumns(rep)
	if rep.Codec != "" {
		rec.Codec = rep.Codec
	}
	return rec, nil
}
