// Command loadgen replays a synthetic workload against a running paced
// estimator service at a target QPS and reports latency percentiles and
// shed rates as JSON — the end-to-end evidence that the server sheds
// load (fast 429s, bounded p99) instead of collapsing into timeouts.
//
// Each request is one single-query estimate call (client-side coalescing
// off) so every latency sample is one wire round trip.
//
// Against a multi-tenant host, -target routes the load at named tenants:
// one id replays against that tenant alone; a comma-separated list runs
// one concurrent lane per tenant, each offered the full -qps, and the
// report becomes a per-tenant ledger keyed by tenant id.
//
// Beyond the uniform open loop, -spec plans a realistic stream with
// internal/workloadgen — a skew-rated client population firing bursty
// arrivals, each request under its own X-Pace-Client identity, with
// query shapes fitted from the dataset's historical workload — and the
// report grows per-SLO-class and per-client splits. -record writes the
// planned stream as a JSONL trace; -replay fires a recorded trace
// bit-exactly; -calibrate gates the run's ledger against a previously
// recorded report (exit 1 when the deltas exceed tolerance).
//
// Examples:
//
//	paced -addr 127.0.0.1:8645 -rate 2000 &
//	loadgen -url http://127.0.0.1:8645 -qps 4000 -duration 10s
//	loadgen -url http://127.0.0.1:8645 -target a,b -qps 500
//	loadgen -url http://127.0.0.1:8645 -spec bursty -duration 10s -record t.jsonl -out rec.json
//	loadgen -url http://127.0.0.1:8645 -replay t.jsonl -calibrate rec.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"pace/internal/cli"
	"pace/internal/experiments"
	"pace/internal/loadgen"
	"pace/internal/query"
	"pace/internal/remote"
	"pace/internal/workload"
	"pace/internal/workloadgen"
)

func main() {
	var (
		url         = flag.String("url", "http://127.0.0.1:8645", "paced service base URL")
		target      = flag.String("target", "", "tenant id(s) to load, comma-separated (default: tenant \"default\")")
		datasetName = flag.String("dataset", "dmv", "dataset the service hosts (workload source)")
		scale       = flag.Float64("scale", 0, "dataset scale factor (0 = profile default)")
		seed        = cli.Seed()
		nQueries    = flag.Int("queries", 200, "distinct queries in the replayed pool")
		qps         = flag.Float64("qps", 1000, "offered request rate (per lane; ignored with -spec/-replay)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to offer load")
		timeout     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		clientID    = flag.String("client", "", "X-Pace-Client identity (default host/pid; per-planned-client with -spec/-replay)")
		codecName   = flag.String("codec", "binary", "data-path wire codec: binary or json (415 from an older server downgrades the lane to json)")
		authToken   = cli.AuthToken()
		out         = flag.String("out", "", "write the JSON report here (default stdout)")
		specName    = flag.String("spec", "", "workload spec: a built-in profile (uniform, bursty) or a JSON spec file")
		record      = flag.String("record", "", "record the planned stream as a JSONL trace here (requires -spec)")
		replayPath  = flag.String("replay", "", "replay a recorded trace instead of planning (mutually exclusive with -spec)")
		calPath     = flag.String("calibrate", "", "recorded report JSON to gate this run against (exit 1 on calibration failure)")
		workers     = flag.Int("workers", 0, "schedule-generation fan-out (any value plans the identical stream)")
		obsFlags    = cli.Obs()
	)
	flag.Parse()
	_, obsShutdown, err := obsFlags.Setup()
	if err != nil {
		fatal(err)
	}
	if *specName != "" && *replayPath != "" {
		fatal(fmt.Errorf("-spec and -replay are mutually exclusive"))
	}
	if *record != "" && *specName == "" {
		fatal(fmt.Errorf("-record requires -spec (replays are already recorded)"))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	cfg := experiments.Config{Seed: *seed, Scale: *scale}.WithDefaults()
	w, err := experiments.NewWorld(*datasetName, cfg)
	if err != nil {
		fatal(err)
	}
	pool := workload.Queries(w.WGen.Random(*nQueries))

	// Plan (or load) the realistic stream when asked.
	var sched *loadgen.Schedule
	switch {
	case *replayPath != "":
		sched, err = workloadgen.ReadTrace(*replayPath, w.DS.Meta)
		if err != nil {
			fatal(err)
		}
	case *specName != "":
		spec, err := loadSpecArg(*specName)
		if err != nil {
			fatal(err)
		}
		// Query shapes track the dataset's historical workload, so the
		// replayed stream presents the mix the estimator trained under.
		shapes := workloadgen.FitShapes(workload.Queries(w.History))
		sched, err = workloadgen.Generate(spec, pool, shapes, *duration, *workers)
		if err != nil {
			fatal(err)
		}
		if *record != "" {
			if err := workloadgen.WriteTrace(*record, sched, w.DS.Meta); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "loadgen: recorded %d arrivals / %d clients to %s\n",
				len(sched.Arrivals), len(sched.Clients), *record)
		}
	}

	lcfg := loadgen.Config{QPS: *qps, Duration: *duration, Timeout: *timeout}
	var tenants []string
	for _, id := range strings.Split(*target, ",") {
		if id = strings.TrimSpace(id); id != "" {
			tenants = append(tenants, id)
		}
	}

	// One shared client; each lane gets its own routed target view so
	// per-tenant wire counters stay separate while connections pool.
	rc, err := remote.NewClient(*url, remote.Options{
		CoalesceWindow: 0, // one request per estimate: honest per-call latency
		RequestTimeout: *timeout,
		ClientID:       *clientID,
		AuthToken:      *authToken,
		Codec:          *codecName,
	})
	if err != nil {
		fatal(err)
	}
	defer rc.Close()

	lane := func(id, name string) loadgen.Lane {
		rt := rc.Target(id)
		l := loadgen.Lane{Target: name, Est: rt.EstimateContext, Stats: rt.Stats, Queries: clonePool(pool), Config: lcfg}
		if sched != nil {
			l.Schedule = sched
			l.FireAs, l.Stats = fireAs(rc, id, rt)
		}
		return l
	}
	var lanes []loadgen.Lane
	if len(tenants) == 0 {
		lanes = []loadgen.Lane{lane("", "default")}
	} else {
		for _, id := range tenants {
			lanes = append(lanes, lane(id, id))
		}
	}

	if sched != nil {
		fmt.Fprintf(os.Stderr, "loadgen: replaying %q: %d arrivals / %d clients x %d lane(s) to %s over %v\n",
			sched.Spec.Name, len(sched.Arrivals), len(sched.Clients), len(lanes), *url, *duration)
	} else {
		fmt.Fprintf(os.Stderr, "loadgen: offering %.0f qps x %d lane(s) to %s for %v (%d-query pool)\n",
			*qps, len(lanes), *url, *duration, len(pool))
	}
	ledger := loadgen.RunLanes(ctx, lanes)

	enc := json.NewEncoder(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		enc = json.NewEncoder(f)
	}
	enc.SetIndent("", "  ")
	// Single-lane runs keep the flat Report shape older tooling parses;
	// multi-lane runs emit the per-tenant ledger.
	var payload any = ledger
	if len(lanes) == 1 {
		payload = ledger[lanes[0].Target]
	}
	if err := enc.Encode(payload); err != nil {
		fatal(err)
	}
	for _, lane := range lanes {
		rep := ledger[lane.Target]
		fmt.Fprintf(os.Stderr,
			"loadgen: [%s] %d offered → %d ok, %d shed(429), %d unavailable, %d errors, %d dropped; p50 %.2fms p99 %.2fms (shed p99 %.2fms); %s codec, %.1f KiB out / %.1f KiB in\n",
			lane.Target, rep.Offered, rep.OK, rep.Shed, rep.Unavailable, rep.Errors, rep.ClientDropped,
			rep.LatencyMsP50, rep.LatencyMsP99, rep.ShedMsP99,
			rep.Codec, float64(rep.WireBytesOut)/1024, float64(rep.WireBytesIn)/1024)
	}
	if err := obsShutdown(); err != nil {
		fatal(err)
	}

	// Calibration gate: diff this run's aggregate ledger against the
	// recorded report and fail loudly when the replay has drifted.
	if *calPath != "" {
		recorded, err := loadReport(*calPath)
		if err != nil {
			fatal(err)
		}
		cal := loadgen.Calibrate(recorded, ledger.Aggregate(), loadgen.CalTolerance{})
		fmt.Fprintln(os.Stderr, cal)
		if !cal.Pass {
			os.Exit(1)
		}
	}
}

// fireAs routes a planned client identity onto the wire: one routed
// target per identity (lazily, they share the HTTP pool) so the server
// sees X-Pace-Client per planned client, not one monolithic generator.
// The returned stats func sums the wire counters across every identity
// so the lane's byte/codec columns cover the whole population.
func fireAs(rc *remote.Client, tenant string, fallback *remote.RemoteTarget) (loadgen.Fire, func() remote.Stats) {
	var (
		mu      sync.Mutex
		targets = map[string]*remote.RemoteTarget{}
	)
	fire := func(ctx context.Context, client string, q *query.Query) (float64, error) {
		if client == "" {
			return fallback.EstimateContext(ctx, q)
		}
		mu.Lock()
		rt, ok := targets[client]
		if !ok {
			rt = rc.TargetAs(tenant, client)
			targets[client] = rt
		}
		mu.Unlock()
		return rt.EstimateContext(ctx, q)
	}
	stats := func() remote.Stats {
		sum := fallback.Stats()
		mu.Lock()
		defer mu.Unlock()
		for _, rt := range targets {
			s := rt.Stats()
			sum.Requests += s.Requests
			sum.Queries += s.Queries
			sum.Coalesced += s.Coalesced
			sum.Overloaded += s.Overloaded
			sum.Invalid += s.Invalid
			sum.Unavailable += s.Unavailable
			sum.BytesOut += s.BytesOut
			sum.BytesIn += s.BytesIn
			if s.Codec != sum.Codec {
				sum.Codec = s.Codec // a downgraded identity taints the lane
			}
		}
		return sum
	}
	return fire, stats
}

// loadSpecArg resolves -spec: a built-in profile name or a JSON file.
func loadSpecArg(arg string) (workloadgen.Spec, error) {
	if spec, err := workloadgen.Builtin(arg); err == nil {
		return spec, nil
	}
	return workloadgen.LoadSpec(arg)
}

// loadReport reads a recorded report for calibration: either a flat
// single-lane Report or a multi-lane ledger (aggregated).
func loadReport(path string) (loadgen.Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return loadgen.Report{}, err
	}
	var ledger loadgen.Ledger
	if err := json.Unmarshal(raw, &ledger); err == nil && len(ledger) > 0 {
		if agg := ledger.Aggregate(); agg.Offered > 0 {
			return agg, nil
		}
	}
	var rep loadgen.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return loadgen.Report{}, fmt.Errorf("loadgen: %s is not a recorded report: %w", path, err)
	}
	return rep, nil
}

// clonePool gives each lane its own query slice so lanes never share
// iteration state (the queries themselves are immutable).
func clonePool(pool []*query.Query) []*query.Query {
	return append([]*query.Query(nil), pool...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}
