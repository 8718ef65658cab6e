// Command pacerouter fronts a fleet of paced backends with one
// fault-tolerant endpoint speaking the same wire:
//
//	POST /v1/targets                 place + provision a tenant (rendezvous hash)
//	POST /v1/targets/{id}/estimate   proxied to the tenant's backend
//	POST /v1/targets/{id}/execute    proxied + journaled for replay
//	DELETE /v1/targets/{id}          destroy everywhere
//	GET  /v1/targets | /v1/fleet     directory | fleet topology
//	GET  /healthz                    router + per-tenant readiness
//	GET  /metrics                    router_* families (with -metrics)
//
// Backends are actively health-checked; when one dies, its tenants are
// rebuilt on survivors from their stored specs (bit-identical worlds by
// construction) and the journaled execute feedback is replayed in order
// (bit-identical retraining state). Clients only ever see 503 +
// Retry-After during the rebuild window — the retry layer in
// internal/remote rides through it, so a fixed-seed campaign completes
// bit-identically even with a mid-run backend crash.
//
// Examples:
//
//	paced -addr 127.0.0.1:9001 -tenants none &
//	paced -addr 127.0.0.1:9002 -tenants none &
//	pacerouter -addr 127.0.0.1:8645 -backends 127.0.0.1:9001,127.0.0.1:9002 -metrics
//	pace -target-url http://127.0.0.1:8645/v1/targets/default -dataset dmv -model fcn
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

	"pace/internal/cli"
	"pace/internal/httpserve"
	"pace/internal/obs"
	"pace/internal/router"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8645", "listen address (port 0 picks an ephemeral port)")
		backends   = flag.String("backends", "", "comma-separated paced base URLs forming the fleet (required)")
		authToken  = flag.String("auth-token", "", "bearer token the router presents to backends (their -auth-tokens entry)")
		authTokens = flag.String("auth-tokens", "", "bearer-token file for the router's OWN clients (one \"token client-name\" per line)")

		healthInterval = flag.Duration("health-interval", 500*time.Millisecond, "per-backend health probe period")
		probeTimeout   = flag.Duration("probe-timeout", 2*time.Second, "bound on one health probe")
		failThreshold  = flag.Int("fail-threshold", 3, "consecutive failures (probe or data-path) that mark a backend down")
		cooldown       = flag.Duration("cooldown", time.Second, "down window before a half-open re-probe")
		retryAfter     = flag.Duration("retry-after", time.Second, "Retry-After hint sent with router-originated 429/503")
		createTimeout  = flag.Duration("create-timeout", 10*time.Minute, "bound on one re-provision (world build + journal replay)")

		maxTenants  = flag.Int("max-tenants", 0, "fleet-wide tenant cap (0 = unlimited); creates beyond it answer 429 quota_exceeded")
		maxPerOwner = flag.Int("max-per-client", 0, "cap on tenants one client may provision (0 = unlimited)")
		idleEvict   = flag.Duration("idle-evict", 0, "evict tenants idle this long from their backend, keeping spec+journal for lazy bit-exact revival (0 = never)")

		drainWait = flag.Duration("drain", 10*time.Second, "graceful drain bound on shutdown")
		metrics   = flag.Bool("metrics", false, "serve /metrics on the router mux")
		obsFlags  = cli.Obs()
	)
	flag.Parse()

	if strings.TrimSpace(*backends) == "" {
		fmt.Fprintln(os.Stderr, "pacerouter: -backends is required (comma-separated paced URLs)")
		os.Exit(2)
	}

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
			fmt.Fprintln(os.Stderr, "pacerouter:", err)
			os.Exit(2)
		}
		tokens, err = httpserve.ParseAuthTokens(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pacerouter:", err)
			os.Exit(2)
		}
		fmt.Printf("pacerouter: auth enabled (%d tokens); client identity is token-derived\n", len(tokens))
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	rt, err := router.New(router.Config{
		Backends:       strings.Split(*backends, ","),
		AuthToken:      *authToken,
		AuthTokens:     tokens,
		RetryAfter:     *retryAfter,
		HealthInterval: *healthInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		Cooldown:       *cooldown,
		MaxTenants:     *maxTenants,
		MaxPerOwner:    *maxPerOwner,
		IdleAfter:      *idleEvict,
		CreateTimeout:  *createTimeout,
		Telemetry:      tel,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacerouter:", err)
		os.Exit(2)
	}

	bound, err := rt.Start(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pacerouter:", err)
		os.Exit(1)
	}
	fmt.Printf("pacerouter: listening on http://%s, fronting %s\n", bound, *backends)

	<-ctx.Done()
	fmt.Fprintln(os.Stderr, "pacerouter: draining...")
	dctx, dcancel := context.WithTimeout(context.Background(), *drainWait)
	defer dcancel()
	if err := rt.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "pacerouter: drain:", err)
	}
	if err := obsShutdown(); err != nil {
		fmt.Fprintln(os.Stderr, "pacerouter: telemetry shutdown:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pacerouter: bye")
}
