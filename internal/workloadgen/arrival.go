package workloadgen

import (
	"math"
	"math/rand"
)

// Interarrival sampling. Every sampler draws from a *rand.Rand the
// caller owns (one private splitmix64-split stream per client), and
// every sample is normalized to mean 1 so the client's rate is applied
// uniformly afterwards: interarrival = sample / rate. Burstiness is the
// *shape* of the distribution (its coefficient of variation), not its
// mean — equal-mean workloads with different shapes is exactly the
// comparison BENCH_remote.json's uniform-vs-bursty row makes.

// meanOneSampler returns a mean-1 interarrival sampler for the process.
// The spec must be validated first (unknown processes panic).
func meanOneSampler(a ArrivalSpec) func(*rand.Rand) float64 {
	switch a.Process {
	case "poisson":
		// Exponential(1): CV = 1, the memoryless baseline.
		return func(rng *rand.Rand) float64 { return rng.ExpFloat64() }
	case "gamma":
		// Gamma(k, 1/k): CV = 1/√k, so k < 1 is burstier than Poisson
		// (clustered arrivals separated by long gaps), k > 1 smoother.
		k := a.Shape
		return func(rng *rand.Rand) float64 { return gammaSample(rng, k) / k }
	case "weibull":
		// Weibull(k) scaled by 1/Γ(1+1/k): k < 1 gives a heavy tail of
		// long gaps with dense clusters between them.
		k := a.Shape
		norm := math.Gamma(1 + 1/k)
		return func(rng *rand.Rand) float64 {
			u := 1 - rng.Float64() // (0,1]: log never sees 0
			return math.Pow(-math.Log(u), 1/k) / norm
		}
	default:
		panic("workloadgen: unvalidated arrival process " + a.Process)
	}
}

// gammaSample draws Gamma(k, 1) by Marsaglia–Tsang squeeze for k ≥ 1,
// with the standard boost Gamma(k) = Gamma(k+1)·U^{1/k} for k < 1.
func gammaSample(rng *rand.Rand, k float64) float64 {
	if k < 1 {
		u := 1 - rng.Float64()
		return gammaSample(rng, k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := 1 - rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// onOffClock maps a client's "active" arrival process onto wall time
// through alternating exponential on/off windows: arrivals only land in
// on-windows, and the caller boosts the within-window rate by
// (on+off)/on so the client's mean offered rate is unchanged. The
// result is ServeGen-style coordinated burstiness — idle gaps followed
// by windows of concentrated fire.
type onOffClock struct {
	rng         *rand.Rand
	onMean      float64
	offMean     float64
	wall        float64 // wall-time cursor, seconds
	onRemaining float64 // seconds of the current on-window past the cursor
}

// newOnOffClock starts a client's window sequence. The initial phase is
// randomized from the client's own stream (an exp(off) delay with
// probability off/(on+off)), so a fleet of clients does not fire one
// synthetic all-hands burst at t = 0.
func newOnOffClock(rng *rand.Rand, oo *OnOffSpec) *onOffClock {
	c := &onOffClock{rng: rng, onMean: oo.OnSec, offMean: oo.OffSec}
	if rng.Float64() < oo.OffSec/(oo.OnSec+oo.OffSec) {
		c.wall = oo.OffSec * rng.ExpFloat64()
	}
	c.onRemaining = c.onMean * rng.ExpFloat64()
	return c
}

// advance consumes d seconds of active (on-window) time and returns the
// wall-clock timestamp the active process reaches, skipping off-windows.
func (c *onOffClock) advance(d float64) float64 {
	for d > c.onRemaining {
		d -= c.onRemaining
		c.wall += c.onRemaining
		c.wall += c.offMean * c.rng.ExpFloat64()
		c.onRemaining = c.onMean * c.rng.ExpFloat64()
	}
	c.wall += d
	c.onRemaining -= d
	return c.wall
}

// boost is the rate multiplier that keeps the mean offered rate equal
// when arrivals are squeezed into on-windows.
func (o *OnOffSpec) boost() float64 {
	if o == nil {
		return 1
	}
	return (o.OnSec + o.OffSec) / o.OnSec
}
