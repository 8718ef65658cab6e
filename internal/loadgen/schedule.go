package loadgen

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pace/internal/query"
	"pace/internal/workloadgen"
)

// Schedule aliases the workloadgen plan so lane construction reads
// naturally without every caller importing both packages.
type Schedule = workloadgen.Schedule

// Fire fires one estimate under a client identity (sent as
// X-Pace-Client, so the server's per-client token buckets see the
// planned population, not one monolithic load generator).
type Fire func(ctx context.Context, client string, q *query.Query) (float64, error)

// RunSchedule fires a planned request stream open-loop: every arrival
// fires at its recorded offset from run start (or immediately once
// behind schedule), regardless of whether earlier requests returned.
// The report splits outcomes per SLO class and per client on top of
// the usual ledger. cfg.QPS and cfg.Duration are ignored — the
// schedule defines both the timing and the horizon; Timeout and
// MaxInFlight apply as in Run. ctx cancels the run early.
func RunSchedule(ctx context.Context, fire Fire, sched *Schedule, cfg Config) Report {
	return fireLoop(ctx, fire, plan{
		n:       len(sched.Arrivals),
		at:      func(i int) workloadgen.Arrival { return sched.Arrivals[i] },
		clients: sched.Clients,
		queries: sched.Queries,
	}, cfg.withDefaults(), sched.Spec.Clients.MeanQPS)
}

// plan is the arrival stream fireLoop walks: n arrivals in due order,
// the i-th produced by at(i) on demand, naming its client and query by
// index.
type plan struct {
	n       int
	at      func(i int) workloadgen.Arrival
	clients []workloadgen.Client
	queries []*query.Query
	// horizon, when set, ends the offer: once the clock is catchUpSlack
	// past it, every arrival not yet fired is booked as a client drop in
	// one step. Only one-client plans set it.
	horizon time.Duration
}

// catchUpSlack is how long past its horizon a run keeps catching up on
// overdue arrivals: a few timer wake-ups, so a healthy generator fires
// its last arrivals while one that cannot keep up stops at once.
const catchUpSlack = 10 * time.Millisecond

// fireLoop is the one firing loop behind Run and RunSchedule. It fires
// every arrival at its absolute due time (start + T), each in its own
// goroutine; on waking it fires every arrival already due before it
// sleeps again, so a slow wake-up makes requests late — booked as
// latency, which runs from the due time — rather than thinning the
// stream. An arrival due while cfg.MaxInFlight requests are outstanding
// is booked as a client drop, so every arrival fired or cut short by
// the horizon is booked exactly once. It returns once every fired
// request has finished.
func fireLoop(ctx context.Context, fire Fire, p plan, cfg Config, targetQPS float64) Report {
	var (
		col      collector
		inFlight atomic.Int64
		wg       sync.WaitGroup
	)
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	start := time.Now()
	for i := 0; i < p.n && ctx.Err() == nil; {
		a := p.at(i)
		c := p.clients[a.Client]
		now := time.Since(start)
		if p.horizon > 0 && now > p.horizon+catchUpSlack {
			col.arrival(int64(p.n-i), true, c.Class, c.ID)
			break
		}
		if wait := a.T - now; wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
			case <-timer.C:
			}
			continue
		}
		i++
		dropped := inFlight.Load() >= int64(cfg.MaxInFlight)
		col.arrival(1, dropped, c.Class, c.ID)
		if dropped {
			continue
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(due time.Time, q *query.Query) {
			defer wg.Done()
			defer inFlight.Add(-1)
			rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
			defer cancel()
			_, err := fire(rctx, c.ID, q)
			ms := float64(time.Since(due).Microseconds()) / 1e3
			col.record(classify(err), ms, c.Class, c.ID)
		}(start.Add(a.T), p.queries[a.Query])
	}
	wg.Wait()
	return col.finish(targetQPS, time.Since(start))
}
