// Command paced stands black-box cardinality estimators up as a real
// network service — the deployed targets of PACE's threat model. One
// process hosts many tenants: named estimator worlds, each trained
// exactly the way cmd/pace builds its in-process target (same dataset,
// model and seed give the same weights) and each owning its own model
// goroutine, admission queues and rate limits:
//
//	POST /v1/targets/{id}/estimate   routed estimates, single or batch
//	POST /v1/targets/{id}/execute    executed-query feedback → retraining
//	POST /v1/targets                 provision a tenant at runtime
//	DELETE /v1/targets/{id}          drain and destroy a tenant
//	GET  /v1/targets                 tenant directory
//	POST /v1/estimate | /v1/execute  legacy wire, aliasing tenant "default"
//	GET  /healthz                    per-tenant readiness (503 while draining)
//	GET  /metrics                    tenant-labeled metrics (with -metrics)
//
// Estimates are micro-batched per tenant; admission is bounded (full
// queues shed with 429 + Retry-After) and per-client token buckets
// rate-limit by client identity — the X-Pace-Client header, or, with
// -auth-tokens, the spoof-proof name mapped from the bearer token.
// SIGINT/SIGTERM drains gracefully: health flips to 503, in-flight
// requests on every tenant finish, then the process exits.
//
// Examples:
//
//	paced -addr 127.0.0.1:8645 -dataset dmv -model fcn -seed 1
//	paced -tenants a=dmv:fcn,b=dmv:linear -metrics
//	paced -auth-tokens tokens.txt -rate 500
//	pace -target-url http://127.0.0.1:8645/v1/targets/a -dataset dmv -model fcn
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pace/internal/ce"
	"pace/internal/cli"
	"pace/internal/experiments"
	"pace/internal/httpserve"
	"pace/internal/obs"
	"pace/internal/targetserver"
	"pace/internal/tenant"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8645", "listen address (port 0 picks an ephemeral port)")
		datasetName = flag.String("dataset", "dmv", "default tenant's dataset: dmv, imdb, tpch or stats")
		modelName   = flag.String("model", "fcn", "default tenant's CE model: fcn, fcnpool, mscn, rnn, lstm or linear")
		scale       = flag.Float64("scale", 0, "dataset scale factor (0 = profile default)")
		seed        = cli.Seed()
		tenants     = flag.String("tenants", "", "boot tenants instead of the single default one: comma-separated id=dataset:model[:seedoffset], or \"none\" to boot empty (fleet members behind pacerouter, which provisions tenants itself)")
		estCache    = flag.Int("est-cache", 0, "per-tenant LRU estimate cache entries, modeling a plan cache (0 = disabled)")
		codecs      = flag.String("codecs", "", "data-path codecs the server negotiates, comma-separated subset of json,binary (default: both; control plane is always json)")
		authTokens  = flag.String("auth-tokens", "", "bearer-token file (one \"token client-name\" per line); when set, client identity is token-derived and unauthenticated requests get 401")

		maxBatch    = flag.Int("max-batch", 64, "micro-batch size cap in queries")
		batchWindow = flag.Duration("batch-window", 200*time.Microsecond, "micro-batch gather window")
		queueDepth  = flag.Int("queue-depth", 128, "estimate admission queue capacity (full = shed 429)")
		execDepth   = flag.Int("exec-queue-depth", 8, "execute (retraining) queue capacity")
		rate        = flag.Float64("rate", 0, "per-client admitted requests per second per tenant (0 = unlimited)")
		burst       = flag.Int("burst", 0, "per-client token-bucket burst (0 = one second of tokens)")
		retryAfter  = flag.Duration("retry-after", time.Second, "Retry-After hint sent with 429/503")
		maxTenants  = flag.Int("max-tenants", 0, "cap on hosted tenants, live or evicted (0 = unlimited); creates beyond it answer 429 quota_exceeded")
		maxPerOwner = flag.Int("max-per-client", 0, "cap on tenants one authenticated client may provision (0 = unlimited)")
		idleEvict   = flag.Duration("idle-evict", 0, "evict tenants idle this long, spilling their spec for lazy revival (0 = never)")
		drainWait   = flag.Duration("drain", 10*time.Second, "graceful drain bound on shutdown")
		metrics     = flag.Bool("metrics", false, "serve /metrics and /debug/pprof on the service mux")
		obsFlags    = cli.Obs()
	)
	flag.Parse()

	tel, obsShutdown, err := obsFlags.Setup()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if tel == nil && *metrics {
		tel = &obs.Telemetry{Reg: obs.NewRegistry()}
	} else if tel != nil && tel.Reg == nil && *metrics {
		tel.Reg = obs.NewRegistry()
	}

	var tokens map[string]string
	if *authTokens != "" {
		f, err := os.Open(*authTokens)
		if err != nil {
			fmt.Fprintln(os.Stderr, "paced:", err)
			os.Exit(2)
		}
		tokens, err = httpserve.ParseAuthTokens(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "paced:", err)
			os.Exit(2)
		}
		fmt.Printf("paced: auth enabled (%d tokens); client identity is token-derived\n", len(tokens))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// Boot specs: -tenants when given, else the single default tenant
	// from -dataset/-model. Seed and scale are process-wide; seedoffset
	// defaults to 1, the cmd/pace convention, so a hosted (dataset,
	// model, seed) triple is bit-identical to the in-process victim.
	specs, err := bootSpecs(*tenants, *datasetName, *modelName, *seed, *scale, *estCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paced:", err)
		os.Exit(2)
	}

	var codecList []string
	for _, name := range strings.Split(*codecs, ",") {
		if name = strings.TrimSpace(name); name != "" {
			if name != "json" && name != "binary" {
				fmt.Fprintf(os.Stderr, "paced: -codecs %q: unknown codec %q (want json or binary)\n", *codecs, name)
				os.Exit(2)
			}
			codecList = append(codecList, name)
		}
	}

	cfg := targetserver.Config{
		MaxBatch:       *maxBatch,
		BatchWindow:    *batchWindow,
		QueueDepth:     *queueDepth,
		ExecQueueDepth: *execDepth,
		RatePerSec:     *rate,
		Burst:          *burst,
		RetryAfter:     *retryAfter,
		MaxTenants:     *maxTenants,
		MaxPerOwner:    *maxPerOwner,
		IdleAfter:      *idleEvict,
		AuthTokens:     tokens,
		Telemetry:      tel,
		Codecs:         codecList,
	}
	// The same factory serves boot-time -tenants and runtime POST
	// /v1/targets; its base profile matches cmd/pace's defaults.
	baseCfg := experiments.Config{Seed: *seed, Scale: *scale}.WithDefaults()
	cfg.Factory = experiments.TenantFactory(baseCfg)

	reg := tenant.NewRegistry(cfg.Factory, cfg.TenantConfig())
	for _, spec := range specs {
		fmt.Printf("paced: training tenant %s: %s %s (seed %d, offset %d)...\n",
			spec.ID, spec.Dataset, spec.Model, spec.Seed, spec.SeedOffset)
		if _, err := reg.Create(ctx, spec); err != nil {
			fmt.Fprintln(os.Stderr, "paced:", err)
			os.Exit(2)
		}
	}

	srv := targetserver.NewMulti(reg, cfg)
	bound, err := srv.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("paced: listening on http://%s (%d tenants)\n", bound, reg.Len())

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "paced: draining...")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	defer dcancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "paced: drain:", err)
	}
	if err := obsShutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "paced: telemetry shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "paced: bye")
}

// bootSpecs parses -tenants ("id=dataset:model[:seedoffset]", comma
// separated); empty means one default tenant from the single-target
// flags, and "none" boots zero tenants — the fleet-member mode, where
// pacerouter provisions every tenant through POST /v1/targets and a
// pre-claimed "default" would 409 the router's own create.
func bootSpecs(tenants, dataset, model string, seed int64, scale float64, cacheSize int) ([]tenant.Spec, error) {
	if tenants == "none" {
		return nil, nil
	}
	if tenants == "" {
		if _, err := ce.ParseType(model); err != nil {
			return nil, err
		}
		return []tenant.Spec{{
			ID: httpserve.DefaultTenant, Dataset: dataset, Model: model,
			Seed: seed, SeedOffset: 1, Scale: scale, CacheSize: cacheSize,
		}}, nil
	}
	var specs []tenant.Spec
	for _, ent := range strings.Split(tenants, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		id, world, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("tenant %q: want id=dataset:model[:seedoffset]", ent)
		}
		parts := strings.Split(world, ":")
		if len(parts) != 2 && len(parts) != 3 {
			return nil, fmt.Errorf("tenant %q: want id=dataset:model[:seedoffset]", ent)
		}
		if _, err := ce.ParseType(parts[1]); err != nil {
			return nil, fmt.Errorf("tenant %q: %w", ent, err)
		}
		spec := tenant.Spec{
			ID: id, Dataset: parts[0], Model: parts[1],
			Seed: seed, SeedOffset: 1, Scale: scale, CacheSize: cacheSize,
		}
		if len(parts) == 3 {
			if _, err := fmt.Sscanf(parts[2], "%d", &spec.SeedOffset); err != nil {
				return nil, fmt.Errorf("tenant %q: bad seedoffset: %w", ent, err)
			}
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("-tenants %q names no tenants", tenants)
	}
	return specs, nil
}
