package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// poissonDue plans an open-loop arrival stream: exponential gaps at rate
// per second for d, as offsets from the stream's start.
func poissonDue(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due
		}
		due = append(due, at)
	}
}

// outcome is one planned arrival's booking. Every arrival gets exactly
// one: latency runs from its due time to its completion.
type outcome struct {
	lat  time.Duration // completion − due
	late time.Duration // fire − due: how late the generator was
	err  error
}

// maxInFlight bounds the driver's own outstanding requests; an arrival
// due while this many are still running is booked as dropped instead of
// fired. Past the stack's capacity the driver so turns into a closed loop
// of this many requests, which keeps the backlog, and the memory it
// holds, bounded while the rung's completion rate measures the capacity.
const maxInFlight = 2048

var errDropped = errors.New("dropped by the driver: too many requests in flight")

// openLoop fires fire(i) for every planned arrival at its absolute due
// time (start + due[i]), each in its own goroutine, regardless of how
// earlier requests fare. The scheduler fires every arrival whose due time
// has passed before sleeping again, so a slow wake-up makes requests late
// (and booked as such) rather than silently thinning the stream. It
// returns once every fired request has finished.
func openLoop(ctx context.Context, due []time.Duration, fire func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, len(due))
	var wg sync.WaitGroup
	var inFlight atomic.Int64
	start := time.Now()
	for i := 0; i < len(due); {
		now := time.Since(start)
		if wait := due[i] - now; wait > 0 {
			time.Sleep(wait)
			continue
		}
		for ; i < len(due) && due[i] <= now; i++ {
			late := now - due[i]
			if inFlight.Load() >= maxInFlight {
				out[i] = outcome{late: late, err: errDropped}
				continue
			}
			inFlight.Add(1)
			wg.Add(1)
			go func(i int, dueAt time.Time, late time.Duration) {
				defer wg.Done()
				defer inFlight.Add(-1)
				err := fire(ctx, i)
				out[i] = outcome{lat: time.Since(dueAt), late: late, err: err}
			}(i, start.Add(due[i]), late)
		}
	}
	wg.Wait()
	return out
}

// closedLoop keeps n requests outstanding until d has passed or count
// have been fired: each of n workers fires the next index as soon as its
// previous request returns. Latency runs from firing to completion. It
// returns the outcomes of the fired indexes, 0 up to the last fired.
func closedLoop(ctx context.Context, n, count int, d time.Duration, fire func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, count)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= count {
					return
				}
				t := time.Now()
				err := fire(ctx, i)
				out[i] = outcome{lat: time.Since(t), err: err}
			}
		}()
	}
	wg.Wait()
	return out[:min(int(next.Load()), count)]
}

// windows runs a saturation block that holds a write stream in a fixed
// proportion to the estimates: an execute, then the next count/execs
// estimates with up to n outstanding, and so on until every window has
// run or d has passed. Every window does the same work, so the block's
// rate does not hang on how two free-running streams happen to overlap.
func windows(ctx context.Context, n, count, execs int, d time.Duration, execute, fire func(ctx context.Context, i int) error) (out, execOut []outcome) {
	per := count / execs
	start := time.Now()
	for j := 0; j < execs && time.Since(start) < d; j++ {
		t := time.Now()
		err := execute(ctx, j)
		execOut = append(execOut, outcome{lat: time.Since(t), err: err})
		lo := j * per
		out = append(out, closedLoop(ctx, n, per, d, func(ctx context.Context, i int) error {
			return fire(ctx, lo+i)
		})...)
	}
	return out, execOut
}

// serialLane runs planned operations one at a time in due order: each
// starts at its due time or, when the previous one overran, immediately
// after it. Latency still runs from the due time, so an overrun shows as
// waiting. The order of the operations is fixed by the plan, which keeps
// order-sensitive work (retraining) deterministic.
func serialLane(ctx context.Context, due []time.Duration, fire func(ctx context.Context, i int) error) []outcome {
	out := make([]outcome, len(due))
	start := time.Now()
	for i := range due {
		if wait := due[i] - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		err := fire(ctx, i)
		out[i] = outcome{lat: time.Since(start) - due[i], err: err}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule;
// 0 for an empty slice. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summary condenses one stream's bookings.
type summary struct {
	n, failed int
	p50, p90  float64 // ms, over all bookings; a failed request counts as +Inf
}

func summarize(out []outcome) summary {
	s := summary{n: len(out)}
	lat := make([]float64, len(out))
	for i, o := range out {
		if o.err != nil {
			s.failed++
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(o.lat)
	}
	s.p50, s.p90 = quantile(lat, 0.5), quantile(lat, 0.9)
	return s
}
