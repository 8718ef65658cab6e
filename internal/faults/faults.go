// Package faults makes the target unreliable on purpose. PACE's threat
// model reaches the victim estimator over remote SQL access, so probes,
// EXPLAIN estimates, COUNT(*) labels and poison executes all cross a
// network to a live DBMS that can be slow, flaky, rate-limited or
// wrong. An Injector wraps the black-box target (ce.Target) and the
// COUNT(*) oracle and injects latency, transient errors, dropped
// queries, label noise and token-bucket rate limits, with per-fault
// counters. All fault decisions are drawn from a single seeded RNG, so
// a profile+seed pair replays the exact same fault schedule — chaos
// tests stay deterministic.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"pace/internal/ce"
	"pace/internal/obs"
	"pace/internal/query"
	"pace/internal/resilience"
)

// ErrTransient marks an injected transient target failure (the remote
// analogue of a connection reset or statement timeout). Retryable.
var ErrTransient = errors.New("faults: transient target error")

// ErrDropped marks a query that the network silently dropped; the
// caller observes it as a failure after the fact. Retryable.
var ErrDropped = errors.New("faults: query dropped")

// ErrRateLimited marks a call rejected by the target's admission
// control (token bucket empty). Retryable after backoff.
var ErrRateLimited = errors.New("faults: rate limited")

// IsTransient reports whether err is one of the injected, retry-worthy
// fault errors.
func IsTransient(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrDropped) || errors.Is(err, ErrRateLimited)
}

// Profile describes one flavor of target unreliability. The zero value
// injects nothing.
type Profile struct {
	Name string
	// Latency and LatencyJitter add Latency + U(0,Jitter) of sleep to
	// every call (the network round trip).
	Latency       time.Duration
	LatencyJitter time.Duration
	// ErrorRate is the probability a call fails with ErrTransient.
	ErrorRate float64
	// DropRate is the probability a call is dropped (ErrDropped).
	DropRate float64
	// LabelNoise, when > 0, perturbs oracle labels multiplicatively by
	// exp(N(0, LabelNoise)) — a stale or sampled COUNT(*).
	LabelNoise float64
	// RatePerSec/Burst configure a token bucket on admitted calls;
	// RatePerSec == 0 disables rate limiting.
	RatePerSec float64
	Burst      int
}

// The named profiles, mirroring deployment conditions from benign
// (None) to hostile (Chaos). Flaky is the acceptance-criteria profile:
// 5% transient errors, 1% drops, injected latency.
func None() Profile { return Profile{Name: "none"} }

func Slow() Profile {
	return Profile{Name: "slow", Latency: 200 * time.Microsecond, LatencyJitter: 400 * time.Microsecond}
}

func Flaky() Profile {
	return Profile{
		Name:          "flaky",
		Latency:       50 * time.Microsecond,
		LatencyJitter: 100 * time.Microsecond,
		ErrorRate:     0.05,
		DropRate:      0.01,
	}
}

func Lossy() Profile {
	return Profile{Name: "lossy", ErrorRate: 0.10, DropRate: 0.10}
}

func Noisy() Profile {
	return Profile{Name: "noisy", LabelNoise: 0.25}
}

func Throttled() Profile {
	return Profile{Name: "throttled", RatePerSec: 5000, Burst: 500}
}

func Chaos() Profile {
	return Profile{
		Name:          "chaos",
		Latency:       100 * time.Microsecond,
		LatencyJitter: 200 * time.Microsecond,
		ErrorRate:     0.20,
		DropRate:      0.05,
		LabelNoise:    0.25,
		RatePerSec:    20000,
		Burst:         2000,
	}
}

// Profiles returns every named profile, benign first.
func Profiles() []Profile {
	return []Profile{None(), Slow(), Flaky(), Lossy(), Noisy(), Throttled(), Chaos()}
}

// ByName resolves a profile by its name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("faults: unknown profile %q", name)
}

// Counters tallies injected faults. Read a consistent snapshot with
// Injector.Counters.
type Counters struct {
	// Calls is every call that reached the injector.
	Calls int64
	// Transients, Drops, RateLimited count the injected failures.
	Transients  int64
	Drops       int64
	RateLimited int64
	// NoisyLabels counts oracle labels that were perturbed.
	NoisyLabels int64
	// InjectedLatency is the total sleep added across calls.
	InjectedLatency time.Duration
}

// Failures is the total number of failed calls injected.
func (c Counters) Failures() int64 { return c.Transients + c.Drops + c.RateLimited }

// Injector injects the faults of one Profile, deterministically under a
// fixed seed. Safe for concurrent use; concurrency does perturb the
// per-call fault schedule (goroutine interleaving orders the RNG
// draws), so determinism tests should drive it single-threaded.
type Injector struct {
	prof Profile

	mu     sync.Mutex
	rng    *rand.Rand
	c      Counters
	tokens float64
	last   time.Time

	// Registry handles bound by Instrument; nil-safe no-ops otherwise.
	mCalls, mTransients, mDrops, mRateLimited, mNoisy *obs.Counter
}

// NewInjector builds an injector for p whose fault schedule is fully
// determined by seed.
func NewInjector(p Profile, seed int64) *Injector {
	return &Injector{
		prof:   p,
		rng:    rand.New(rand.NewSource(seed)),
		tokens: float64(p.Burst),
	}
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile { return in.prof }

// Instrument binds per-fault counters (`pace_faults_*_total`) to reg and
// returns the injector. Nil injector or registry is a no-op.
func (in *Injector) Instrument(reg *obs.Registry) *Injector {
	if in == nil || reg == nil {
		return in
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.mCalls = reg.Counter("pace_faults_calls_total")
	in.mTransients = reg.Counter("pace_faults_transients_total")
	in.mDrops = reg.Counter("pace_faults_drops_total")
	in.mRateLimited = reg.Counter("pace_faults_rate_limited_total")
	in.mNoisy = reg.Counter("pace_faults_noisy_labels_total")
	return in
}

// Counters snapshots the fault tallies.
func (in *Injector) Counters() Counters {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.c
}

// decide draws this call's fate: the injected latency and the injected
// error (nil for a healthy call). Counter updates happen here so that
// accounting matches the schedule exactly.
func (in *Injector) decide() (time.Duration, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.c.Calls++
	in.mCalls.Inc()

	if in.prof.RatePerSec > 0 {
		now := time.Now()
		if !in.last.IsZero() {
			in.tokens += now.Sub(in.last).Seconds() * in.prof.RatePerSec
			if max := float64(in.prof.Burst); in.tokens > max {
				in.tokens = max
			}
		}
		in.last = now
		if in.tokens < 1 {
			in.c.RateLimited++
			in.mRateLimited.Inc()
			return 0, ErrRateLimited
		}
		in.tokens--
	}

	var lat time.Duration
	if in.prof.Latency > 0 || in.prof.LatencyJitter > 0 {
		lat = in.prof.Latency
		if in.prof.LatencyJitter > 0 {
			lat += time.Duration(in.rng.Float64() * float64(in.prof.LatencyJitter))
		}
		in.c.InjectedLatency += lat
	}
	if in.prof.DropRate > 0 && in.rng.Float64() < in.prof.DropRate {
		in.c.Drops++
		in.mDrops.Inc()
		return lat, ErrDropped
	}
	if in.prof.ErrorRate > 0 && in.rng.Float64() < in.prof.ErrorRate {
		in.c.Transients++
		in.mTransients.Inc()
		return lat, ErrTransient
	}
	return lat, nil
}

// admit applies one call's faults: sleeps the injected latency
// (honoring ctx) and returns the injected error, if any.
func (in *Injector) admit(ctx context.Context) error {
	lat, err := in.decide()
	if serr := resilience.Sleep(ctx, lat); serr != nil {
		return serr
	}
	return err
}

// NoisyCard perturbs an oracle label according to the profile's
// LabelNoise, clamping so a non-empty result stays non-empty (noise
// models staleness, not disappearance).
func (in *Injector) NoisyCard(card float64) float64 {
	if in.prof.LabelNoise <= 0 {
		return card
	}
	in.mu.Lock()
	f := math.Exp(in.rng.NormFloat64() * in.prof.LabelNoise)
	in.c.NoisyLabels++
	in.mNoisy.Inc()
	in.mu.Unlock()
	out := card * f
	if card >= 1 && out < 1 {
		out = 1
	}
	return out
}

// WrapTarget interposes the injector between the attacker and a target.
// The target may itself be a network transport (remote.RemoteTarget):
// the wrapper injects faults before the call leaves the process and
// passes the transport's own errors through untouched, so exactly one
// layer — the campaign's retry policy — observes and retries both
// kinds. The injector counts only what it injected; transport failures
// never inflate the fault counters, and the wrapper never retries, so
// pace_retry_waits_total remains the single retry tally.
func (in *Injector) WrapTarget(t ce.Target) ce.Target {
	return &faultyTarget{in: in, t: t}
}

type faultyTarget struct {
	in *Injector
	t  ce.Target
}

// Unwrap exposes the wrapped target, so owners can reach the concrete
// transport underneath (a remote client's Close/Stats, for example).
func (ft *faultyTarget) Unwrap() ce.Target { return ft.t }

func (ft *faultyTarget) EstimateContext(ctx context.Context, q *query.Query) (float64, error) {
	if err := ft.in.admit(ctx); err != nil {
		return 0, err
	}
	return ft.t.EstimateContext(ctx, q)
}

// ExecuteWorkload applies per-query faults: dropped or failed queries
// never reach the target (their poison is lost), the survivors are
// forwarded in a single inner call so a retried batch cannot
// double-update the victim.
func (ft *faultyTarget) ExecuteWorkload(ctx context.Context, qs []*query.Query, cards []float64) error {
	kept := make([]*query.Query, 0, len(qs))
	keptCards := make([]float64, 0, len(cards))
	for i, q := range qs {
		err := ft.in.admit(ctx)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // this query's poison is lost in transit
		}
		kept = append(kept, q)
		keptCards = append(keptCards, cards[i])
	}
	if len(kept) == 0 {
		return nil
	}
	return ft.t.ExecuteWorkload(ctx, kept, keptCards)
}

// WrapOracle interposes the injector on a COUNT(*) oracle, adding the
// profile's faults and label noise. The function type matches
// core.Oracle without importing it.
func (in *Injector) WrapOracle(o func(context.Context, *query.Query) (float64, error)) func(context.Context, *query.Query) (float64, error) {
	return func(ctx context.Context, q *query.Query) (float64, error) {
		if err := in.admit(ctx); err != nil {
			return 0, err
		}
		card, err := o(ctx, q)
		if err != nil {
			return 0, err
		}
		return in.NoisyCard(card), nil
	}
}
