// Fleet tracing integration tests: a seeded campaign driven through a
// live pacerouter onto a live paced backend must produce one stitched
// span tree — client, router and backend spans linked by the
// X-Pace-Trace header into the campaign's seed-derived trace ID — with
// zero orphans, and the tree's structure must be identical at any
// worker count (the observability extension of the PR-2 determinism
// contract, now across process boundaries).
package pace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
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

// fleetTraceRun drives one fixed-seed campaign through a router + 2
// paced backends, every process tracing to its own buffer, and returns
// the merged spans plus the telemetry registries (client, router,
// backends) for metric assertions.
func fleetTraceRun(t *testing.T, seed int64, workers int) ([]obs.SpanRecord, []*obs.Registry) {
	t.Helper()
	w, _, runCfg := remoteCampaignWorld(t, seed)

	var bufs []*bytes.Buffer
	var tracers []*obs.Tracer
	newTel := func(proc string) *obs.Telemetry {
		buf := &bytes.Buffer{}
		tel := &obs.Telemetry{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(buf)}
		tel.Tracer.SetProc(proc)
		bufs = append(bufs, buf)
		tracers = append(tracers, tel.Tracer)
		return tel
	}

	var urls []string
	var servers []*targetserver.Server
	var regs []*obs.Registry
	for i := 0; i < 2; i++ {
		tel := newTel("paced")
		cfg := targetserver.Config{Factory: experiments.TenantFactory(experiments.Config{}), Telemetry: tel}
		reg := tenant.NewRegistry(cfg.Factory, cfg.TenantConfig())
		srv := targetserver.NewMulti(reg, cfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		urls = append(urls, "http://"+addr)
		regs = append(regs, tel.Reg)
	}
	telR := newTel("pacerouter")
	rt, err := router.New(router.Config{Backends: urls, Telemetry: telR})
	if err != nil {
		t.Fatal(err)
	}
	raddr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rurl := "http://" + raddr

	rc, err := remote.NewClient(rurl, remote.Options{ClientID: "fleet-trace"})
	if err != nil {
		t.Fatal(err)
	}
	admin := rc.Admin()
	actx, acancel := context.WithTimeout(context.Background(), 10*time.Minute)
	_, err = admin.CreateTarget(actx, wire.TargetSpec{ID: "victim", Dataset: "dmv", Model: "fcn", Seed: seed})
	acancel()
	admin.Close()
	if err != nil {
		t.Fatalf("provisioning victim through router: %v", err)
	}

	telC := newTel("pace")
	runCfg.Workers = workers
	runCfg.Telemetry = telC
	c := core.Campaign{
		TargetURL: rurl + "/v1/targets/victim", Workload: w.WGen,
		Test: w.Test, History: w.History,
		Config: runCfg, Seed: seed,
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatalf("fleet campaign (workers=%d): %v", workers, err)
	}

	// Shut the fleet down before flushing tracers so every in-flight
	// span (async retrains, batch spans) has ended.
	rt.Close() //nolint:errcheck
	for _, srv := range servers {
		srv.Close() //nolint:errcheck
	}
	var all []obs.SpanRecord
	for i, tr := range tracers {
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ParseTrace(bufs[i])
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, recs...)
	}
	return all, append([]*obs.Registry{telC.Reg, telR.Reg}, regs...)
}

// canonicalFleetSpans reduces merged fleet spans to their
// worker-count-independent form: proc:name paths to the root plus attr
// JSON, sorted. Spans named "batch" are excluded — like the pace_pool_*
// counters, batch composition is timing-dependent by design.
func canonicalFleetSpans(t *testing.T, recs []obs.SpanRecord) []string {
	t.Helper()
	byID := make(map[uint64]obs.SpanRecord, len(recs))
	for _, r := range recs {
		byID[r.ID] = r
	}
	var path func(r obs.SpanRecord) string
	path = func(r obs.SpanRecord) string {
		seg := r.Proc + ":" + r.Name
		if r.Parent == 0 {
			return seg
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has dangling parent %d", r.ID, r.Name, r.Parent)
		}
		return path(p) + "/" + seg
	}
	var out []string
	for _, r := range recs {
		if r.Name == "batch" {
			continue
		}
		// The campaign root records its worker count as an attribute; that
		// is the one value this comparison varies on purpose.
		delete(r.Attrs, "workers")
		attrs, err := json.Marshal(r.Attrs)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, path(r)+" "+string(attrs))
	}
	sort.Strings(out)
	return out
}

// TestIntegrationFleetTraceStitched is the tentpole acceptance test: one
// campaign through the fleet yields a single stitched trace — the
// seed-derived trace ID on every span from every process, one root, no
// orphans — and the per-tenant RED histograms carry slow-request
// exemplars whose trace IDs resolve into that same trace.
func TestIntegrationFleetTraceStitched(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11
	spans, regs := fleetTraceRun(t, seed, 2)

	wantTrace := obs.DeriveTraceID(seed)
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	procs := map[string]int{}
	var roots, orphans int
	for _, r := range spans {
		byID[r.ID] = r
	}
	for _, r := range spans {
		if r.Trace != wantTrace {
			t.Fatalf("span %s [%s] carries trace %s, want %s", r.Name, r.Proc, r.Trace, wantTrace)
		}
		procs[r.Proc]++
		if r.Parent == 0 {
			roots++
			if r.Name != "campaign" || r.Proc != "pace" {
				t.Errorf("root span is %s [%s], want campaign [pace]", r.Name, r.Proc)
			}
		} else if _, ok := byID[r.Parent]; !ok {
			orphans++
		}
	}
	if roots != 1 {
		t.Errorf("stitched trace has %d roots, want 1", roots)
	}
	if orphans != 0 {
		t.Errorf("stitched trace has %d orphans, want 0", orphans)
	}
	for _, p := range []string{"pace", "pacerouter", "paced"} {
		if procs[p] == 0 {
			t.Errorf("no spans from proc %s (got %v)", p, procs)
		}
	}

	// The cross-process parent chain: a backend model_inference span must
	// hang under srv_estimate under the router's proxy_estimate under the
	// client's rpc_estimate.
	var chained bool
	for _, line := range canonicalFleetSpans(t, spans) {
		if strings.Contains(line, "pace:rpc_estimate/pacerouter:proxy_estimate/paced:srv_estimate/paced:model_inference") {
			chained = true
			break
		}
	}
	if !chained {
		t.Error("no rpc_estimate → proxy_estimate → srv_estimate → model_inference chain in the stitched trace")
	}

	// Per-tenant RED + exemplars: the router and the hosting backend both
	// metered the victim's estimate route, and at least one duration
	// bucket carries an exemplar resolving to the campaign trace.
	assertExemplar := func(reg *obs.Registry, name string) {
		t.Helper()
		snap := reg.Snapshot()
		h, ok := snap.Histograms[name]
		if !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty", name)
			return
		}
		for _, e := range h.Exemplars {
			if e.TraceID == wantTrace {
				return
			}
		}
		t.Errorf("histogram %s has no exemplar with trace %s (exemplars: %v)", name, wantTrace, h.Exemplars)
	}
	assertExemplar(regs[1], fmt.Sprintf("router_http_duration_seconds{route=%q,tenant=%q}", "estimate", "victim"))
	hosting := false
	for _, reg := range regs[2:] {
		name := fmt.Sprintf("paced_http_duration_seconds{route=%q,tenant=%q}", "estimate", "victim")
		if h, ok := reg.Snapshot().Histograms[name]; ok && h.Count > 0 {
			hosting = true
			assertExemplar(reg, name)
		}
	}
	if !hosting {
		t.Error("no backend metered the victim's estimate route")
	}
}

// TestIntegrationFleetTraceDeterministicAcrossWorkerCounts extends
// TestTraceDeterministicAcrossWorkerCounts to the remote path: the
// stitched span structure of a fixed-seed fleet campaign is identical
// whether the campaign labels serially or on 4 workers.
func TestIntegrationFleetTraceDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test is slow")
	}
	const seed = 11
	serialSpans, _ := fleetTraceRun(t, seed, 0)
	workerSpans, _ := fleetTraceRun(t, seed, 4)
	serial := canonicalFleetSpans(t, serialSpans)
	workers := canonicalFleetSpans(t, workerSpans)

	if len(serial) != len(workers) {
		t.Fatalf("workers=4 stitched %d spans, serial %d", len(workers), len(serial))
	}
	for i := range serial {
		if serial[i] != workers[i] {
			t.Errorf("span %d differs:\n  workers=4: %s\n  serial:    %s", i, workers[i], serial[i])
		}
	}
}
