package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"time"
)

// probeRef is the reference host's time for one hostProbe. CPU-bound
// figures are reported at the reference host's speed: a time divided by,
// and a rate multiplied by, how much slower than the reference the host
// ran the run's probes. On a shared host whose speed drifts by a third
// over minutes (NOTES.md), this keeps runs minutes apart comparable.
const probeRef = 50 * time.Millisecond

// hostSpeed is how much slower than the reference host the host ran a
// probe, for each of the three clocks a figure can be timed by: wall
// time, steal-adjusted wall time (clock.stop) and CPU time. 1 is the
// reference speed; 1.2 is a fifth slower.
type hostSpeed struct{ wall, adj, cpu float64 }

// probes are the run's probe timings, in the order taken.
var probes []hostSpeed

// probeHost runs one hostProbe, between the run's CPU-bound phases, and
// records its timing. The probe's buffers are allocated and written
// before the clock starts, so page faults are not timed.
func probeHost() {
	bufs := make([][]uint64, runtime.GOMAXPROCS(0))
	for p := range bufs {
		bufs[p] = make([]uint64, probeMemWords)
		for i := range bufs[p] {
			bufs[p][i] = uint64(i)
		}
	}
	c := startClock()
	hostProbe(bufs)
	l := c.stop()
	ref := probeRef.Seconds()
	probes = append(probes, hostSpeed{
		wall: l.wall.Seconds() / ref,
		adj:  l.adj.Seconds() / ref,
		cpu:  l.cpu / (ref * float64(len(bufs))),
	})
}

// hostSlowdown is the run's host speed: for each clock, the median over
// every probe of the run. One probe is too short to go by (the same probe
// took from 26 to 63 ms within a few seconds), so the figures are scaled
// by the run's median rather than by the probes nearest to them.
func hostSlowdown() hostSpeed {
	var wall, adj, cpu []float64
	for _, p := range probes {
		wall, adj, cpu = append(wall, p.wall), append(adj, p.adj), append(cpu, p.cpu)
	}
	return hostSpeed{median(wall), median(adj), median(cpu)}
}

// hostProbe is a fixed amount of the benchmark's own work, of the kinds
// the measured program does, on every core at once: dense float
// arithmetic as in model inference, sorting and goroutine hand-offs, and
// scattered reads and writes over a buffer (one per core) larger than a
// core's own caches, as the oracle's scans over the tables do. It shares
// no code with the program and allocates nothing while it runs, so neither
// a change to the program nor the size of its heap moves it: its time
// tracks only how fast the host runs.
func hostProbe(bufs [][]uint64) {
	sums := make([]float64, len(bufs))
	var wg sync.WaitGroup
	for p := range bufs {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sums[p] = probeWork(p) + float64(probeMem(bufs[p]))
		}(p)
	}
	wg.Wait()
	if math.IsNaN(sum(sums)) {
		panic("perfbench: host probe diverged")
	}
}

// The probe's size: together its two parts take about probeRef on the
// 2-vCPU VM the figures in NOTES.md come from. Each core's buffer is
// 16 MiB, beyond its own caches, so the reads go to the shared last-level
// cache or to memory, where a neighbour crowding the shared cache slows
// them without slowing the arithmetic.
const (
	probeRounds   = 3000
	probeMemWords = 2 << 20 // a power of two
	probeMemReads = 1 << 21
)

// probeWork is one core's arithmetic: a dense layer over a 64-wide
// vector, its output handed to a second goroutine to sort and handed back.
func probeWork(seed int) float64 {
	const dim = 64
	w := make([]float64, dim*dim)
	for i := range w {
		w[i] = math.Sin(float64(i + seed))
	}
	x := make([]float64, dim)
	bufs := [2][]float64{make([]float64, dim), make([]float64, dim)}
	work, back := make(chan []float64, 2), make(chan []float64, 2)
	go func() {
		for v := range work {
			sort.Float64s(v)
			back <- v
		}
		close(back)
	}()
	acc := 0.0
	for round := 0; round < probeRounds; round++ {
		for i := range x {
			x[i] = float64((round+i)%17) / 17
		}
		y := bufs[round%2]
		if round >= 2 {
			y = <-back
		}
		for i := 0; i < dim; i++ {
			s := 0.0
			row := w[i*dim : (i+1)*dim]
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = math.Max(s, 0)
		}
		acc += y[round%dim]
		work <- y
	}
	close(work)
	for range back {
	}
	return acc
}

// probeMem is one core's memory traffic: reads and writes at pseudo-random
// places in its buffer. The places do not hang on the values read, so
// several reads are in flight at once, as in a scan.
func probeMem(buf []uint64) uint64 {
	mask := uint64(len(buf) - 1)
	x, acc := uint64(0x9E3779B97F4A7C15), uint64(0)
	for i := 0; i < probeMemReads; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		j := (x >> 24) & mask
		acc += buf[j]
		buf[j] = acc
	}
	return acc
}
