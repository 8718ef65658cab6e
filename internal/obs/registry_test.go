package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Errorf("nil counter Value = %d, want 0", c.Value())
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Errorf("nil gauge Value = %d, want 0", g.Value())
	}
	h := r.Histogram("z")
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram must observe nothing")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil registry WritePrometheus: %v", err)
	}
}

func TestCounterAndGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if v := r.Counter("c").Value(); v != 8000 {
		t.Errorf("counter = %d, want 8000", v)
	}
	if v := r.Gauge("g").Value(); v != 8000 {
		t.Errorf("gauge = %d, want 8000", v)
	}
	// Same name returns the same instrument.
	if r.Counter("c") != r.Counter("c") {
		t.Error("Counter(name) must be stable")
	}
}

// TestHistogramBucketBoundaries pins the log2 bucketing at its edges:
// exact powers of two land in the bucket whose inclusive upper bound
// they are, values just above roll into the next bucket, and the
// extremes clamp to the underflow/overflow buckets.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-3, 0},
		{math.NaN(), 0},
		{math.Pow(2, -40), 0},       // below range: underflow bucket
		{1, -histMinExp},            // 2^0 exactly: the le=1 bucket
		{1.0000001, 1 - histMinExp}, // just above a power of two → le=2
		{2, 1 - histMinExp},         // 2^1 exactly
		{0.5, -1 - histMinExp},      // 2^-1 exactly
		{3, 2 - histMinExp},         // between 2 and 4 → le=4
		{math.Pow(2, float64(histMaxExp)), histMaxExp - histMinExp},
		{math.Pow(2, 40), histBuckets - 1}, // above range: overflow bucket
		{math.Inf(1), histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Upper bounds invert the mapping: a value equal to bucketUpper(i)
	// must land in bucket i (bounds are inclusive).
	for _, i := range []int{0, 1, 10, 32, 33, 40, histBuckets - 2} {
		if got := bucketOf(bucketUpper(i)); got != i {
			t.Errorf("bucketOf(bucketUpper(%d)=%g) = %d", i, bucketUpper(i), got)
		}
	}
	if !math.IsInf(bucketUpper(histBuckets-1), 1) {
		t.Error("top bucket upper bound must be +Inf")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{0.001, 0.001, 0.002, 0.004, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-1000.008) > 1e-9 {
		t.Errorf("Sum = %g, want 1000.008", got)
	}
	// Median of {1ms,1ms,2ms,4ms,1000} is 2ms, which lives in the
	// le=2^-8 (~3.9ms) bucket — the estimate is that bucket's bound.
	if q := h.Quantile(0.5); q < 0.002 || q > 0.004 {
		t.Errorf("Quantile(0.5) = %g, want the ~3.9ms bucket bound", q)
	}
	if q := h.Quantile(1); q < 1000 {
		t.Errorf("Quantile(1) = %g, want ≥ 1000", q)
	}
	if q := (&Histogram{}).Quantile(0.9); q != 0 {
		t.Errorf("empty histogram Quantile = %g, want 0", q)
	}
}

// TestSnapshotQuantile pins the after-the-fact percentile export: a
// snapshot must estimate the same bucketed quantiles as the live
// histogram it was copied from, and survive a JSON round trip (the
// bench-record path) unchanged.
func TestSnapshotQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []float64{0.001, 0.001, 0.002, 0.004, 1000} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["lat"]
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if got, want := hs.Quantile(q), h.Quantile(q); got != want {
			t.Errorf("snapshot Quantile(%g) = %g, live histogram = %g", q, got, want)
		}
	}
	raw, err := json.Marshal(hs)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Quantile(0.99), h.Quantile(0.99); got != want {
		t.Errorf("round-tripped Quantile(0.99) = %g, want %g", got, want)
	}
	if q := (HistogramSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty snapshot Quantile = %g, want 0", q)
	}
}

func TestSnapshotMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("calls").Add(5)
	a.Gauge("depth").Set(2)
	a.Histogram("lat").Observe(1)
	b := NewRegistry()
	b.Counter("calls").Add(7)
	b.Counter("other").Add(1)
	b.Gauge("depth").Set(9)
	b.Histogram("lat").Observe(8)

	m := a.Snapshot().Merge(b.Snapshot())
	if m.Counters["calls"] != 12 || m.Counters["other"] != 1 {
		t.Errorf("merged counters = %v", m.Counters)
	}
	if m.Gauges["depth"] != 9 {
		t.Errorf("merged gauge = %d, want 9 (last writer wins)", m.Gauges["depth"])
	}
	h := m.Histograms["lat"]
	if h.Count != 2 || h.Sum != 9 {
		t.Errorf("merged histogram = %+v", h)
	}
	var total int64
	for _, n := range h.Buckets {
		total += n
	}
	if total != 2 {
		t.Errorf("merged bucket mass = %d, want 2", total)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("pace_oracle_calls_total").Add(42)
	r.Counter(`pace_pool_worker_tasks_total{worker="0"}`).Add(3)
	r.Counter(`pace_pool_worker_tasks_total{worker="1"}`).Add(4)
	r.Gauge("pace_pool_queue_depth").Set(5)
	r.Histogram("pace_oracle_latency_seconds").Observe(0.001)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE pace_oracle_calls_total counter\npace_oracle_calls_total 42\n",
		`pace_pool_worker_tasks_total{worker="0"} 3`,
		`pace_pool_worker_tasks_total{worker="1"} 4`,
		"# TYPE pace_pool_queue_depth gauge",
		"# TYPE pace_oracle_latency_seconds histogram",
		`pace_oracle_latency_seconds_bucket{le="+Inf"} 1`,
		"pace_oracle_latency_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// The labeled family must emit exactly one TYPE line.
	if n := strings.Count(out, "# TYPE pace_pool_worker_tasks_total"); n != 1 {
		t.Errorf("labeled family has %d TYPE lines, want 1", n)
	}
}
