// Command perfbench is the repository's benchmark. One invocation runs one
// workload for a fixed time and prints, as its last line, one JSON object
// with the run's correctness, operation counts and metrics:
//
//	go run . --ladder 3000,6000 --ref-qps 3000 --p99-limit-ms 100 \
//		--workload serve-read --seed 1 --seconds 26 --trace 0
//
// BENCHMARK.json at the repository root pins those settings, and
// perfbench/run.sh builds the benchmark inside the checkout and runs it.
// Workloads:
//
//   - serve-read: Poisson estimate arrivals at a ladder of fixed rates,
//     client → pacerouter → paced → one dmv/fcn tenant, no cache, no
//     repeated query;
//   - serve-mixed: the same estimate ladder straight to paced with the
//     tenant's estimate cache on and queries repeating over a replay pool,
//     beside a stream of execute (retrain) batches in a fixed proportion;
//   - campaign-tpch: in-process core.Campaign.Run with cmd/pace's
//     defaults on tpch at scale 1, model type forced to fcn.
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1
// reruns the workload's reference phase under an in-memory tracer and
// reports per-layer metrics folded from the spans the program emits.
// NOTES.md records what is pinned and why.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// opts are the run's settings. The settings BENCHMARK.json pins are
// required flags, so that file stays their one source.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool

	ladder     []float64 // estimate offered rates, qps, ascending, one rung each
	ref        int       // the rung whose latency is the headline
	p99LimitMS float64   // a rung meets the limit when its p99 is at most this
	conns      int       // connections per hop and GOMAXPROCS: nproc
}

// Fixed settings of the workloads; NOTES.md gives the reasons.
const (
	blockLen    = time.Second            // one stretch of arrivals at one rung
	coalesce    = 200 * time.Microsecond // client coalescing window (remote's documented default)
	lateLimitMS = 50.0                   // generator p99 lateness above which a run is invalid
	stealLimit  = 0.10                   // median stolen CPU share above which a run is invalid
	serveSetups = 15                     // set-ups per serve run; setup_s is their median
	satInFlight = 128                    // estimates the saturation rung keeps outstanding
	satBlocks   = 2                      // saturation blocks per round of the ladder
	satWarm     = 3 * time.Second        // untimed saturation before the first measured block
	// A saturation block's estimates, as a multiple of the top fixed
	// rate's arrivals in a block.
	satReadHeadroom  = 8.0
	satMixedHeadroom = 2.0
	poolSize         = 200  // serve-mixed replay pool: cmd/loadgen's -queries default
	cacheSize        = 4096 // serve-mixed tenant estimate-cache entries, more than the pool
	minCampaigns     = 3    // campaign-tpch: campaigns per run, at least
)

func parseFlags(args []string) (opts, error) {
	var o opts
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.StringVar(&o.workload, "workload", "", "serve-read, serve-mixed or campaign-tpch")
	fset.Int64Var(&o.seed, "seed", 1, "workload seed: arrivals, query pools and execute batches")
	fset.IntVar(&o.seconds, "seconds", 26, "measured seconds")
	trace := fset.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	ladder := fset.String("ladder", "", "estimate offered rates in qps, ascending, one ladder rung each (required)")
	refQPS := fset.Float64("ref-qps", 0, "the ladder rate whose latency is the headline (required)")
	fset.Float64Var(&o.p99LimitMS, "p99-limit-ms", 0, "p99 estimate latency limit for max_rate (required)")
	if err := fset.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	o.ref = -1
	for i, f := range strings.Split(*ladder, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || r <= 0 || (i > 0 && r <= o.ladder[i-1]) {
			return o, fmt.Errorf("bad --ladder rate %q: rates must be positive and ascending", f)
		}
		if r == *refQPS {
			o.ref = i
		}
		o.ladder = append(o.ladder, r)
	}
	switch {
	case o.workload != "serve-read" && o.workload != "serve-mixed" && o.workload != "campaign-tpch":
		return o, fmt.Errorf("unknown --workload %q", o.workload)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case o.p99LimitMS <= 0:
		return o, fmt.Errorf("--p99-limit-ms must be positive")
	case o.ref < 0:
		return o, fmt.Errorf("--ref-qps must be one of the --ladder rates")
	}
	o.conns = runtime.NumCPU()
	return o, nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's metrics and correctness verdict.
type report struct {
	metrics   map[string]metric
	problems  []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// One process drives and serves: never more threads than cores.
	if runtime.GOMAXPROCS(0) > o.conns {
		runtime.GOMAXPROCS(o.conns)
	}
	stamp(o)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep := newReport()
	switch o.workload {
	case "campaign-tpch":
		err = benchCampaign(ctx, o, rep)
	default:
		err = benchServe(ctx, o, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Println("check failed:", p)
	}
	if len(rep.problems) == 0 {
		fmt.Println("checks: all passed")
	}
	line, err := json.Marshal(result{
		Correct:   len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// stamp prints what the numbers depend on, so results from different
// machines or revisions are never compared by accident.
func stamp(o opts) {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("env nproc=%d gomaxprocs=%d go=%s rev=%s src=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev, srcDigest("."))
}

// srcDigest hashes the checkout's Go sources and module files, so a
// result names the code it measured even where no git revision is known.
func srcDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuClock reads the machine's stolen CPU time (all CPUs together, from
// /proc/stat) and this process's own user+system CPU time, both in
// seconds; zeros where the platform has no such counters.
func cpuClock() (steal, self float64) {
	if raw, err := os.ReadFile("/proc/stat"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
				if ticks, err := strconv.ParseFloat(f[8], 64); err == nil {
					steal = ticks / 100 // USER_HZ
				}
				break
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		self = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return steal, self
}

// clock times one CPU-bound phase of a run. On a shared 2-vCPU VM whose
// CPUs are stolen in spells lasting seconds, identical campaigns took
// from 4.8 s to 12 s of wall time. The lap's adjusted time takes the
// stolen share out, assuming steal hit this process in proportion to the
// CPU it used: wall × cpu / (cpu + steal).
type clock struct {
	t0           time.Time
	steal0, cpu0 float64
}

func startClock() clock {
	steal, cpu := cpuClock()
	return clock{t0: time.Now(), steal0: steal, cpu0: cpu}
}

// lap is one timed phase.
type lap struct {
	wall, adj time.Duration
	cpu       float64 // this process's CPU seconds
	steal     float64 // share of the machine's CPU time stolen
}

func (c clock) stop() lap {
	l := lap{wall: time.Since(c.t0)}
	steal, cpu := cpuClock()
	steal, l.cpu = steal-c.steal0, cpu-c.cpu0
	l.adj = l.wall
	if l.wall > 0 {
		l.steal = steal / (l.wall.Seconds() * float64(runtime.NumCPU()))
	}
	if l.cpu > 0 && steal > 0 {
		l.adj = time.Duration(float64(l.wall) * l.cpu / (l.cpu + steal))
	}
	return l
}

// checkSteal marks a run invalid when the machine's CPUs were stolen for
// more than stealLimit of the time: such a host's figures belong to
// another regime than a quiet one's and must not be compared with them.
func checkSteal(rep *report, share float64) {
	fmt.Printf("steal_share=%.4f (limit %g)\n", share, stealLimit)
	if share > stealLimit {
		rep.fail("invalid run: %.1f%% of the machine's CPU time was stolen (limit %g%%)", 100*share, 100*stealLimit)
	}
}

// rssWatch samples the process's resident set every few milliseconds,
// for one phase of a run, skipping the stretches it is paused over.
type rssWatch struct {
	stop, done chan struct{}
	paused     atomic.Bool
	peak, sum  float64 // MiB
	n          int
}

// pause stops (or resumes) sampling; a nil watch ignores it.
func (w *rssWatch) pause(p bool) {
	if w != nil {
		w.paused.Store(p)
	}
}

func watchRSS() *rssWatch {
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if !w.paused.Load() {
				mb := residentMB()
				w.peak = max(w.peak, mb)
				w.sum += mb
				w.n++
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// end stops the sampler and returns the phase's peak and mean in MiB.
func (w *rssWatch) end() (peak, mean float64) {
	close(w.stop)
	<-w.done
	if w.n == 0 {
		return 0, 0
	}
	return w.peak, w.sum / float64(w.n)
}

// residentMB reads the current resident set from /proc/self/statm.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(raw))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
