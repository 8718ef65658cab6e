package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/tenant"
	"pace/internal/wire"
)

// timedTarget wraps the victim ce.Target and times the model layer from
// outside: every estimate and every retrain the serving stack (or a
// campaign) asks of it.
type timedTarget struct {
	ce.Target
	estNanos, estCalls atomic.Int64

	mu      sync.Mutex
	retrain []float64 // ms per ExecuteWorkload call
}

func (t *timedTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	start := time.Now()
	est, err := t.Target.EstimateContext(ctx, q)
	t.estNanos.Add(int64(time.Since(start)))
	t.estCalls.Add(1)
	return est, err
}

func (t *timedTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	start := time.Now()
	err := t.Target.ExecuteWorkload(ctx, qs, cards)
	d := ms(time.Since(start))
	t.mu.Lock()
	t.retrain = append(t.retrain, d)
	t.mu.Unlock()
	return err
}

// inferenceUSPerQuery is the mean model time per estimated query.
func (t *timedTarget) inferenceUSPerQuery() float64 {
	n := t.estCalls.Load()
	if n == 0 {
		return 0
	}
	return float64(t.estNanos.Load()) / float64(n) / 1e3
}

func (t *timedTarget) retrainP50() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return median(append([]float64(nil), t.retrain...))
}

// timedFactory wraps a tenant.Factory so every victim it builds is a
// timedTarget; the last one built is kept for reading its timings.
type timedFactory struct {
	inner tenant.Factory
	mu    sync.Mutex
	last  *timedTarget
}

func (f *timedFactory) build(ctx context.Context, spec tenant.Spec) (ce.Target, *query.Meta, error) {
	target, meta, err := f.inner(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	tt := &timedTarget{Target: target}
	f.mu.Lock()
	f.last = tt
	f.mu.Unlock()
	return tt, meta, nil
}

func (f *timedFactory) victim() *timedTarget {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last
}

// countingHandler wraps a server's handler and counts the requests it
// served and the shed (429) replies it sent.
type countingHandler struct {
	next     http.Handler
	requests atomic.Int64
	shed     atomic.Int64
}

func (h *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(sw, r)
	h.requests.Add(1)
	if sw.status == http.StatusTooManyRequests {
		h.shed.Add(1)
	}
}

type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (w *statusRecorder) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// codecCost times the binary codec on one estimate exchange of n queries,
// the way the wire carries it: encode is the client's request plus the
// server's response, decode the server's request plus the client's
// response. It returns the median over reps, in microseconds.
func codecCost(qs []*query.Query, n, reps int) (encodeUS, decodeUS float64) {
	if n < 1 {
		n = 1
	}
	if n > len(qs) {
		n = len(qs)
	}
	c, _ := wire.CodecByName("binary")
	req := wire.EstimateRequest{V: wire.Version, Queries: wire.EncodeQueries(qs[:n])}
	ests := make([]float64, n)
	for i := range ests {
		ests[i] = float64(i + 1)
	}
	resp := wire.EstimateResponse{V: wire.Version, Estimates: wire.FromFloats(ests)}
	enc := make([]float64, reps)
	dec := make([]float64, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		reqRaw, err1 := c.EncodeEstimateRequest(&req)
		respRaw, err2 := c.EncodeEstimateResponse(&resp)
		t1 := time.Now()
		_, err3 := c.DecodeEstimateRequest(reqRaw)
		_, err4 := c.DecodeEstimateResponse(respRaw)
		t2 := time.Now()
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return 0, 0
		}
		enc[r] = float64(t1.Sub(t0)) / 1e3
		dec[r] = float64(t2.Sub(t1)) / 1e3
	}
	return median(enc), median(dec)
}

// span is the compact form of one traced span the folder keeps.
type span struct {
	id, parent uint64
	name       string
	start, dur int64 // µs
	queries    int64 // the "queries" attribute, when present
}

// traceSink collects the JSONL a tracer writes, in fixed-size chunks so
// a growing trace never stalls the tracer on one large copy; spans parses
// it once the tracer is closed.
type traceSink struct{ chunks [][]byte }

const sinkChunk = 1 << 20

func (s *traceSink) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(s.chunks) == 0 || len(s.chunks[len(s.chunks)-1]) == sinkChunk {
			s.chunks = append(s.chunks, make([]byte, 0, sinkChunk))
		}
		last := &s.chunks[len(s.chunks)-1]
		k := min(len(p), sinkChunk-len(*last))
		*last = append(*last, p[:k]...)
		p = p[k:]
	}
	return n, nil
}

func (s *traceSink) spans() ([]span, error) {
	readers := make([]io.Reader, len(s.chunks))
	for i, c := range s.chunks {
		readers[i] = bytes.NewReader(c)
	}
	var out []span
	sc := bufio.NewScanner(io.MultiReader(readers...))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		sp := span{id: rec.ID, parent: rec.Parent, name: rec.Name, start: rec.StartUS, dur: rec.DurUS}
		if q, ok := rec.Attrs["queries"].(float64); ok {
			sp.queries = int64(q)
		}
		out = append(out, sp)
	}
	return out, sc.Err()
}

// folded is a trace reduced by span name: each span's self time (its
// duration minus the part of it its children cover) and full duration.
type folded struct {
	self, dur map[string][]float64 // ms
	byID      map[uint64]*span
	children  map[uint64][]*span
	all       []span
}

func fold(spans []span) *folded {
	f := &folded{
		self:     map[string][]float64{},
		dur:      map[string][]float64{},
		byID:     make(map[uint64]*span, len(spans)),
		children: map[uint64][]*span{},
		all:      spans,
	}
	for i := range spans {
		sp := &spans[i]
		f.byID[sp.id] = sp
		if sp.parent != 0 {
			f.children[sp.parent] = append(f.children[sp.parent], sp)
		}
	}
	for i := range spans {
		sp := &spans[i]
		covered := coveredUS(sp, f.children[sp.id])
		f.self[sp.name] = append(f.self[sp.name], float64(sp.dur-covered)/1e3)
		f.dur[sp.name] = append(f.dur[sp.name], float64(sp.dur)/1e3)
	}
	return f
}

// coveredUS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredUS(parent *span, kids []*span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	lo0, hi0 := parent.start, parent.start+parent.dur
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, lo0), min(k.start+k.dur, hi0)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	return total + curHi - curLo
}

func (f *folded) selfQ(name string, q float64) float64 { return quantile(f.self[name], q) }
func (f *folded) durQ(name string, q float64) float64  { return quantile(f.dur[name], q) }

func (f *folded) selfSum(name string) float64 { return sum(f.self[name]) }
func (f *folded) durSum(name string) float64  { return sum(f.dur[name]) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// batchGatherP50 is the median time a tenant's model loop spent gathering
// a micro-batch: from picking up the batch's first job (the end of that
// job's queue_wait) to the start of the batch span, which the tenant opens
// under the same request.
func (f *folded) batchGatherP50() float64 {
	var gather []float64
	for i := range f.all {
		b := &f.all[i]
		if b.name != "batch" {
			continue
		}
		for _, sib := range f.children[b.parent] {
			if sib.name == "queue_wait" {
				gather = append(gather, float64(b.start-(sib.start+sib.dur))/1e3)
				break
			}
		}
	}
	return median(gather)
}

// queriesPerBatch is the mean "queries" attribute of the batch spans.
func (f *folded) queriesPerBatch() float64 {
	var n, q int64
	for i := range f.all {
		if f.all[i].name == "batch" {
			n++
			q += f.all[i].queries
		}
	}
	if n == 0 {
		return 0
	}
	return float64(q) / float64(n)
}

// execWaitP50 is the median time an execute request spent in the server
// before its retrain started: from the srv_execute span's start to the
// start of its retrain child, i.e. decode plus the wait for the tenant's
// single model goroutine.
func (f *folded) execWaitP50() float64 {
	var waits []float64
	for i := range f.all {
		r := &f.all[i]
		if r.name != "retrain" {
			continue
		}
		if p, ok := f.byID[r.parent]; ok && p.name == "srv_execute" {
			waits = append(waits, float64(r.start-p.start)/1e3)
		}
	}
	return median(waits)
}
