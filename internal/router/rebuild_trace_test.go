package router_test

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"pace/internal/obs"
	"pace/internal/router"
	"pace/internal/targetserver"
	"pace/internal/tenant"
)

// tracedProc is one fleet process tracing into its own buffer.
type tracedProc struct {
	tel *obs.Telemetry
	buf *bytes.Buffer
}

func newTracedProc(proc string) *tracedProc {
	p := &tracedProc{buf: &bytes.Buffer{}}
	p.tel = &obs.Telemetry{Reg: obs.NewRegistry(), Tracer: obs.NewTracer(p.buf)}
	p.tel.Tracer.SetProc(proc)
	return p
}

// spans flushes the tracer and parses everything it wrote so far.
func (p *tracedProc) spans(t *testing.T) []obs.SpanRecord {
	t.Helper()
	if err := p.tel.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ParseTrace(bytes.NewReader(p.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestRebuildTraceStitches: a failover rebuild is explainable from its
// trace alone. The router's rebuild root, its provision, the admin
// delete and create it sends, and the journal replay down to the
// surviving backend's srv_execute spans all stitch into one trace with
// one root and zero orphans.
func TestRebuildTraceStitches(t *testing.T) {
	var backends []*tracedProc
	f := &fleet{}
	for i := 0; i < 2; i++ {
		p := newTracedProc("paced")
		cfg := targetserver.Config{Factory: seqFactory, Telemetry: p.tel}
		srv := targetserver.NewMulti(tenant.NewRegistry(cfg.Factory, cfg.TenantConfig()), cfg)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		backends = append(backends, p)
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, "http://"+addr)
	}
	rp := newTracedProc("pacerouter")
	rt, err := router.New(router.Config{Backends: f.urls, Telemetry: rp.tel,
		HealthInterval: 20 * time.Millisecond, Cooldown: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	f.rt = rt
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f.url = "http://" + addr
	t.Cleanup(func() {
		rt.Close() //nolint:errcheck
		for _, srv := range f.servers {
			srv.Close() //nolint:errcheck // the killed member errors
		}
	})

	if resp, _ := createTenant(t, f, "t", "alice"); resp.StatusCode != http.StatusOK {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	cards := []float64{2, 7, 1, 8}
	for _, c := range cards {
		if code := execute(t, f, "t", c); code != http.StatusOK {
			t.Fatalf("execute: %d", code)
		}
	}
	victim, _ := f.hostOf(t, "t")
	victim.Kill()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if _, code, _ := estimate(t, f, "t"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tenant never recovered after backend kill")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The tenant answers once the rebuild flips it ready; the rebuild
	// span ends just after. Wait for it to reach the router's trace.
	var routerSpans []obs.SpanRecord
	for found := false; !found; {
		routerSpans = rp.spans(t)
		for _, r := range routerSpans {
			found = found || r.Name == "rebuild"
		}
		if !found && time.Now().After(deadline) {
			t.Fatal("no rebuild span in the router's trace")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rt.Close() //nolint:errcheck
	for _, srv := range f.servers {
		srv.Close() //nolint:errcheck
	}
	all := append([]obs.SpanRecord(nil), routerSpans...)
	for _, p := range backends {
		all = append(all, p.spans(t)...)
	}

	var trace string
	for _, r := range all {
		if r.Name == "rebuild" {
			trace = r.Trace
		}
	}
	byID := map[uint64]obs.SpanRecord{}
	for _, r := range all {
		if r.Trace == trace {
			byID[r.ID] = r
		}
	}
	parentName := func(r obs.SpanRecord) string { return byID[r.Parent].Proc + ":" + byID[r.Parent].Name }
	var roots, orphans int
	chains := map[string]int{}
	for _, r := range byID {
		switch _, ok := byID[r.Parent]; {
		case r.Parent == 0:
			roots++
		case !ok:
			orphans++
			t.Errorf("orphan span %s [%s] (parent %d)", r.Name, r.Proc, r.Parent)
		default:
			chains[parentName(r)+"/"+r.Proc+":"+r.Name]++
		}
	}
	if roots != 1 {
		t.Errorf("rebuild trace has %d roots, want 1", roots)
	}
	for _, want := range []string{
		"pacerouter:rebuild/pacerouter:provision",
		"pacerouter:provision/pacerouter:rpc_admin_delete",
		"pacerouter:provision/pacerouter:rpc_admin_create",
		"pacerouter:provision/pacerouter:journal_replay",
	} {
		if chains[want] == 0 {
			t.Errorf("no %s in the rebuild trace (have %v)", want, chains)
		}
	}
	if got := chains["pacerouter:journal_replay/paced:srv_execute"]; got < len(cards) {
		t.Errorf("%d srv_execute spans under journal_replay, want at least %d (have %v)", got, len(cards), chains)
	}
}
