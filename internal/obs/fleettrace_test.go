package obs

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	trace := DeriveTraceID(42)
	hdr := FormatTraceParent(trace, 0xdeadbeef)
	gotTrace, gotSpan, ok := ParseTraceParent(hdr)
	if !ok || gotTrace != trace || gotSpan != 0xdeadbeef {
		t.Fatalf("round trip %q → (%s, %x, %v)", hdr, gotTrace, gotSpan, ok)
	}
	for _, bad := range []string{
		"",
		"00-" + trace,                          // missing span + flags
		"01-" + trace + "-00000000deadbeef-01", // unknown version
		"00-" + trace + "-0000000000000000-01", // zero span id
		"00-" + strings.Repeat("0", 32) + "-00000000deadbeef-01", // all-zero trace
		"00-" + trace[:31] + "-00000000deadbeef-01",              // short trace
		"00-" + trace + "-00000000deadbee-01",                    // short span
	} {
		if _, _, ok := ParseTraceParent(bad); ok {
			t.Errorf("ParseTraceParent(%q) accepted a malformed header", bad)
		}
	}
}

func TestDeriveTraceIDStable(t *testing.T) {
	a, b := DeriveTraceID(11), DeriveTraceID(11)
	if a != b {
		t.Fatalf("DeriveTraceID not stable: %s vs %s", a, b)
	}
	if !validTraceID(a) {
		t.Fatalf("DeriveTraceID(11) = %q is not a valid trace ID", a)
	}
	if DeriveTraceID(12) == a {
		t.Error("different seeds derived the same trace ID")
	}
}

// TestRemoteParentStitching is the cross-process contract in miniature:
// a span started in one process, carried over the wire as a traceparent
// header, becomes the parent — and supplies the trace ID — of a span
// started by a different tracer.
func TestRemoteParentStitching(t *testing.T) {
	var bufA, bufB bytes.Buffer
	telA := &Telemetry{Tracer: NewTracer(&bufA)}
	telA.Tracer.SetTraceID(DeriveTraceID(7))

	ctxA, spA := StartSpan(NewContext(context.Background(), telA), "rpc_estimate")
	hdr := TraceParent(ctxA)
	spA.End()
	if hdr == "" {
		t.Fatal("TraceParent returned nothing inside a live span")
	}

	trace, span, ok := ParseTraceParent(hdr)
	if !ok {
		t.Fatalf("own header did not parse: %q", hdr)
	}
	telB := &Telemetry{Tracer: NewTracer(&bufB)}
	ctxB := ContextWithRemoteParent(NewContext(context.Background(), telB), trace, span)
	if got := TraceIDFrom(ctxB); got != DeriveTraceID(7) {
		t.Errorf("TraceIDFrom(remote parent ctx) = %q, want the derived ID", got)
	}
	_, spB := StartSpan(ctxB, "srv_estimate")
	spB.End()

	// A local parent must win over a remote one.
	ctxC, spC := StartSpan(ctxB, "outer")
	_, spD := StartSpan(ctxC, "inner")
	spD.End()
	spC.End()

	if err := telB.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTrace(&bufB)
	if err != nil {
		t.Fatal(err)
	}
	// End order: srv_estimate, inner, outer.
	if len(recs) != 3 {
		t.Fatalf("tracer B emitted %d spans, want 3", len(recs))
	}
	if recs[0].Parent != span || recs[0].Trace != DeriveTraceID(7) {
		t.Errorf("server span = parent %x trace %s, want parent %x trace %s",
			recs[0].Parent, recs[0].Trace, span, DeriveTraceID(7))
	}
	if recs[1].Parent != recs[2].ID {
		t.Errorf("inner span parent = %x, want the local outer span %x", recs[1].Parent, recs[2].ID)
	}
	if recs[2].Parent != span {
		t.Errorf("outer span parent = %x, want the remote parent %x", recs[2].Parent, span)
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(0.4, "aaaa")
	h.ObserveExemplar(0.3, "bbbb") // same bucket, smaller: must not displace
	h.ObserveExemplar(0.45, "cccc")
	h.ObserveExemplar(3, "dddd") // different bucket
	h.Observe(0.5)               // no trace: no exemplar displacement either

	i := bucketOf(0.4)
	e := h.ex[i].Load()
	if e == nil || e.TraceID != "cccc" || e.Value != 0.45 {
		t.Fatalf("bucket %d exemplar = %+v, want cccc/0.45 (max value wins)", i, e)
	}

	r := NewRegistry()
	rh := r.Histogram(`d{route="estimate",tenant="a"}`)
	rh.ObserveExemplar(0.2, "feed")
	snap := r.Snapshot().Histograms[`d{route="estimate",tenant="a"}`]
	if len(snap.Exemplars) != 1 {
		t.Fatalf("snapshot exemplars = %v, want 1", snap.Exemplars)
	}
	for _, e := range snap.Exemplars {
		if e.TraceID != "feed" {
			t.Errorf("snapshot exemplar trace = %q, want feed", e.TraceID)
		}
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="feed"} 0.2`) {
		t.Errorf("Prometheus rendering lacks the exemplar:\n%s", sb.String())
	}
}

// TestSnapshotZeroFill is the satellite-2 boundary test: buckets between
// the first and last populated index appear in the snapshot with zero
// counts, and nothing outside that range leaks in.
func TestSnapshotZeroFill(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("gap")
	h.Observe(0.5) // index histMinExp-relative 31
	h.Observe(8)   // index 35 — leaves 32..34 empty

	snap := r.Snapshot().Histograms["gap"]
	lo, hi := bucketOf(0.5), bucketOf(8)
	if hi-lo != 4 {
		t.Fatalf("bucket layout shifted: lo=%d hi=%d", lo, hi)
	}
	if len(snap.Buckets) != 5 {
		t.Fatalf("snapshot has %d buckets, want 5 (two populated + three zero): %v", len(snap.Buckets), snap.Buckets)
	}
	for i := lo; i <= hi; i++ {
		n, ok := snap.Buckets[i]
		if !ok {
			t.Errorf("bucket %d missing from snapshot", i)
		}
		switch i {
		case lo, hi:
			if n != 1 {
				t.Errorf("bucket %d = %d, want 1", i, n)
			}
		default:
			if n != 0 {
				t.Errorf("zero bucket %d = %d, want 0", i, n)
			}
		}
	}
	if _, ok := snap.Buckets[lo-1]; ok {
		t.Error("bucket below the populated range leaked into the snapshot")
	}
	if _, ok := snap.Buckets[hi+1]; ok {
		t.Error("bucket above the populated range leaked into the snapshot")
	}

	// The Prometheus rendering of a gapped histogram must be cumulative
	// and monotone through the zero buckets.
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	var last int64 = -1
	var lines int
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "gap_bucket") {
			continue
		}
		lines++
		fields := strings.Fields(line)
		n, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		if n < last {
			t.Errorf("cumulative bucket count went backwards: %q after %d", line, last)
		}
		last = n
	}
	if lines != 6 { // 5 finite buckets + +Inf
		t.Errorf("rendered %d gap_bucket lines, want 6", lines)
	}
}

func TestSLOBurnRate(t *testing.T) {
	reg := NewRegistry()
	s := NewSLO(reg, "burn", 50*time.Millisecond, 0.99)
	for i := 0; i < 10; i++ {
		s.Observe(0.001, false) // fast and fine: no burn
	}
	if got := reg.Gauge("burn").Value(); got != 0 {
		t.Errorf("burn after healthy traffic = %d permille, want 0", got)
	}
	for i := 0; i < 10; i++ {
		s.Observe(0.2, false) // slow: burns budget
	}
	// 10 bad / 20 total over the window → 0.5 / 0.01 = 50× burn.
	if got := reg.Gauge("burn").Value(); got != 50000 {
		t.Errorf("burn after 50%% slow = %d permille, want 50000", got)
	}
	s.Observe(0.001, true) // errors burn regardless of latency
	if got := reg.Gauge("burn").Value(); got <= 50000 {
		t.Errorf("burn did not rise on an error: %d", got)
	}

	red := NewRED(reg, "x_http", "estimate", "a", s)
	red.Observe(0.001, false, "cafe")
	if red.Reqs.Value() != 1 || red.Errs.Value() != 0 {
		t.Errorf("RED counters = %d/%d, want 1/0", red.Reqs.Value(), red.Errs.Value())
	}
	red.Observe(0.2, true, "")
	if red.Errs.Value() != 1 {
		t.Errorf("RED error counter = %d, want 1", red.Errs.Value())
	}
	if red.Dur.Count() != 2 {
		t.Errorf("RED duration count = %d, want 2", red.Dur.Count())
	}

	// Nil safety across the board.
	var nilSLO *SLO
	nilSLO.Observe(1, true)
	var nilRED *RED
	nilRED.Observe(1, true, "x")
	NewRED(nil, "p", "r", "t", nil).Observe(0.1, false, "y")
}
