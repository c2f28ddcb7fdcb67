package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bow/internal/simjob"
	"bow/internal/stats"
	"bow/internal/trace"
)

// ErrBadSpec marks submission errors caused by the spec or sweep
// itself (it failed normalization or expansion coordinator-side): the
// request is wrong, not the cluster. The durable tier wraps its own
// admission failures in it too, so ErrStatus answers both with 400.
var ErrBadSpec = errors.New("cluster: bad spec")

// Counters are the coordinator's monotonic tallies, served at /metrics
// and inside /status.
type Counters struct {
	// Jobs/Done/Failed count submitted specs (after coordinator-cache
	// dedup of sweeps, every unique point is one job).
	Jobs   int64 `json:"jobs"`
	Done   int64 `json:"done"`
	Failed int64 `json:"failed"`
	// LocalCacheHits are jobs answered from the coordinator's own
	// result cache without touching any worker.
	LocalCacheHits int64 `json:"localCacheHits"`
	// Retries counts re-dispatches to a different worker after a
	// failed attempt.
	Retries int64 `json:"retries"`
	// Hedges counts duplicate dispatches fired for stragglers;
	// HedgeWins of them finished before the primary; HedgeDiscarded
	// duplicate results were thrown away after a winner was picked.
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedgeWins"`
	HedgeDiscarded int64 `json:"hedgeDiscarded"`
	// Migrations counts jobs a draining worker handed back as
	// checkpoints and the coordinator re-dispatched elsewhere;
	// MigratedCycles totals the checkpoint cycles those jobs resumed
	// from instead of re-simulating from cycle 0.
	Migrations     int64 `json:"migrations"`
	MigratedCycles int64 `json:"migratedCycles"`
}

// WorkerStatus is one worker's routing state as /status reports it.
type WorkerStatus struct {
	Addr     string `json:"addr"`
	Ready    bool   `json:"ready"`
	Draining bool   `json:"draining,omitempty"`
	Breaker  string `json:"breaker"`
	// BreakerRetryMillis is, for an open breaker, how long until the
	// cooldown expires and a half-open probe may route (0 once
	// routable; absent for closed/half-open breakers).
	BreakerRetryMillis int64          `json:"breakerRetryMillis,omitempty"`
	ConsecFails        int            `json:"consecFails,omitempty"`
	Inflight           int            `json:"inflight"`
	ReportedLoad       int64          `json:"reportedLoad"`
	HeartbeatFails     int            `json:"heartbeatFails,omitempty"`
	LastSeenMillis     int64          `json:"lastSeenMillis"`
	LastError          string         `json:"lastError,omitempty"`
	Metrics            simjob.Metrics `json:"metrics"`
}

// Status is the cluster snapshot /status serves and bowctl renders.
type Status struct {
	Workers  []WorkerStatus `json:"workers"`
	Counters Counters       `json:"counters"`
	// P50/P95 of recent job latencies (the hedge window), microseconds.
	P50LatencyMicros int `json:"p50LatencyMicros"`
	P95LatencyMicros int `json:"p95LatencyMicros"`
	// HedgeDelayMicros is the straggler threshold currently in force
	// (0 = hedging inactive, e.g. not enough samples yet).
	HedgeDelayMicros int64 `json:"hedgeDelayMicros"`
}

// ready counts the routable workers.
func (s Status) ready() int {
	n := 0
	for _, ws := range s.Workers {
		if ws.Ready {
			n++
		}
	}
	return n
}

// Coordinator shards simjob work across a registry of bowd workers.
type Coordinator struct {
	opts  Options
	reg   *registry
	cache *simjob.Cache

	// spans records the coordinator-hop stages (route, dispatch, hedge,
	// retry, cache) of every job, keyed to the submitter's trace ID.
	spans *trace.SpanLog

	mu      sync.Mutex
	latency *stats.Window
	rng     *rand.Rand
	ctr     Counters
}

// New builds a coordinator over the given worker addresses and starts
// its heartbeat loop. Workers can also join later via Join.
func New(opts Options, workers ...string) (*Coordinator, error) {
	opts = opts.withDefaults()
	cache, err := simjob.NewCache(opts.CacheSize, "")
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:    opts,
		reg:     newRegistry(opts),
		cache:   cache,
		spans:   trace.NewSpanLog(0),
		latency: stats.NewWindow(opts.LatencyWindow),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, w := range workers {
		c.reg.join(w)
	}
	c.reg.start()
	return c, nil
}

// Join adds a worker at runtime; it reports whether the address was
// new. Routing rebalances automatically: rendezvous hashing moves only
// the points the new worker now owns.
func (c *Coordinator) Join(addr string) bool { return c.reg.join(addr) }

// Leave removes a worker from routing (idempotently); it reports
// whether the address was registered. A worker beginning its SIGTERM
// drain deregisters first, so no new work races the drain.
func (c *Coordinator) Leave(addr string) bool { return c.reg.leave(addr) }

// Close stops the heartbeat loop and fails acquires in progress.
func (c *Coordinator) Close() { c.reg.close() }

// Status snapshots workers, counters, and the hedge state.
func (c *Coordinator) Status() Status {
	s := Status{Workers: c.reg.snapshot()}
	c.mu.Lock()
	s.Counters = c.ctr
	s.P50LatencyMicros = c.latency.Quantile(0.50)
	s.P95LatencyMicros = c.latency.Quantile(0.95)
	c.mu.Unlock()
	s.HedgeDelayMicros = c.hedgeDelay().Microseconds()
	return s
}

// Do routes one spec through the cluster: local cache, then routed
// (and possibly hedged, retried) worker dispatch. The returned string
// is the cache provenance: "" (simulated fresh on a worker),
// "memory"/"disk" (the worker's cache answered), or "coordinator"
// (never left this process).
func (c *Coordinator) Do(ctx context.Context, spec simjob.JobSpec) (simjob.JobResult, string, error) {
	norm, err := spec.Normalize()
	if err != nil {
		return simjob.JobResult{}, "", fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	hash, err := norm.Hash()
	if err != nil {
		return simjob.JobResult{}, "", fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	lookupStart := time.Now()
	if out, ok := c.cache.Get(hash, false); ok {
		c.spans.Record(trace.Span{
			TraceID:     trace.IDFromContext(ctx),
			Hop:         trace.HopCoordinator,
			Stage:       trace.StageCache,
			Job:         hash,
			StartMicros: lookupStart.UnixMicro(),
			DurMicros:   time.Since(lookupStart).Microseconds(),
		})
		c.mu.Lock()
		c.ctr.Jobs++
		c.ctr.Done++
		c.ctr.LocalCacheHits++
		c.mu.Unlock()
		return out.Summary, "coordinator", nil
	}
	c.mu.Lock()
	c.ctr.Jobs++
	c.mu.Unlock()
	res, cached, err := c.run(ctx, norm, hash)
	c.mu.Lock()
	if err != nil {
		c.ctr.Failed++
	} else {
		c.ctr.Done++
	}
	c.mu.Unlock()
	if err != nil {
		return simjob.JobResult{}, "", err
	}
	// Memoize coordinator-side; a torn cache write cannot happen (no
	// disk tier) and a duplicate Put is harmless.
	_ = c.cache.Put(&simjob.Outcome{Spec: norm, Hash: hash, Summary: res})
	return res, cached, nil
}

// migratedError carries a draining worker's checkpoint out of an
// attempt: the job did not fail — it paused, and the next attempt
// resumes it elsewhere via JobSpec.FromCheckpoint.
type migratedError struct {
	addr  string
	cycle int64
	ckpt  []byte
}

func (e *migratedError) Error() string {
	return fmt.Sprintf("cluster: worker %s drained at cycle %d", e.addr, e.cycle)
}

// run is the retry loop: each attempt goes to a worker that has not
// failed this job yet, with jittered exponential backoff in between. A
// draining worker hands the job back as a checkpoint; the coordinator
// re-dispatches the spec with the checkpoint attached, so the next
// worker resumes mid-run instead of restarting from cycle 0 (resuming
// the same spec is bit-identical to the cold run, so the final result
// is unchanged). Migrations don't consume attempts — each one excludes
// the drained worker, so the loop still terminates.
func (c *Coordinator) run(ctx context.Context, spec simjob.JobSpec, hash string) (simjob.JobResult, string, error) {
	exclude := make(map[string]bool)
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.mu.Lock()
			c.ctr.Retries++
			c.mu.Unlock()
			retryStart := time.Now()
			if err := c.sleepBackoff(ctx, attempt-1); err != nil {
				return simjob.JobResult{}, "", err
			}
			// The retry span times the backoff gap between attempts.
			c.spans.Record(trace.Span{
				TraceID:     trace.IDFromContext(ctx),
				Hop:         trace.HopCoordinator,
				Stage:       trace.StageRetry,
				Job:         hash,
				StartMicros: retryStart.UnixMicro(),
				DurMicros:   time.Since(retryStart).Microseconds(),
			})
		}
		res, cached, err := c.attempt(ctx, spec, hash, exclude)
		if err == nil {
			return res, cached, nil
		}
		var mig *migratedError
		if errors.As(err, &mig) {
			spec.FromCheckpoint = mig.ckpt
			c.mu.Lock()
			c.ctr.Migrations++
			c.ctr.MigratedCycles += mig.cycle
			c.mu.Unlock()
			if c.opts.OnCheckpoint != nil {
				c.opts.OnCheckpoint(hash, mig.cycle, mig.ckpt)
			}
			c.spans.Record(trace.Span{
				TraceID: trace.IDFromContext(ctx),
				Hop:     trace.HopCoordinator,
				Stage:   trace.StageMigrate,
				Job:     hash,
				Worker:  mig.addr,
			})
			attempt--
			continue
		}
		// An empty eligible set can be a transient blip (a heartbeat
		// round timing out, a rolling restart): keep retrying, but
		// don't let it mask the real failure from an earlier attempt.
		if !errors.Is(err, ErrNoWorkers) || lastErr == nil {
			lastErr = err
		}
		if ctx.Err() != nil {
			break
		}
		var se *simjob.StatusError
		if errors.As(err, &se) && se.Permanent() {
			// The spec itself is bad; no other worker will disagree.
			break
		}
	}
	return simjob.JobResult{}, "", lastErr
}

type attemptResult struct {
	w    *worker
	resp *simjob.SimulateResponse
	err  error
}

// attempt dispatches the job to its routed worker and races a hedged
// duplicate against it once the straggler threshold passes. Workers
// that failed are added to exclude for the caller's next attempt.
func (c *Coordinator) attempt(ctx context.Context, spec simjob.JobSpec, hash string, exclude map[string]bool) (simjob.JobResult, string, error) {
	traceID := trace.IDFromContext(ctx)
	routeStart := time.Now()
	primary, err := c.reg.acquire(ctx, hash, exclude)
	routeSpan := trace.Span{
		TraceID:     traceID,
		Hop:         trace.HopCoordinator,
		Stage:       trace.StageRoute,
		Job:         hash,
		StartMicros: routeStart.UnixMicro(),
		DurMicros:   time.Since(routeStart).Microseconds(),
	}
	if err != nil {
		routeSpan.Err = err.Error()
		c.spans.Record(routeSpan)
		return simjob.JobResult{}, "", err
	}
	routeSpan.Worker = primary.addr
	c.spans.Record(routeSpan)
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan attemptResult, 2)
	launch := func(w *worker, stage string) {
		go func() {
			start := time.Now()
			resp, err := w.client.Simulate(actx, spec)
			switch {
			case err == nil:
				c.reg.release(w, verdictSuccess)
				c.observeLatency(time.Since(start))
			case actx.Err() != nil:
				// Cancelled by us (hedge lost or caller gone) — not the
				// worker's fault.
				c.reg.release(w, verdictNeutral)
			default:
				c.reg.release(w, verdictFailure)
			}
			span := trace.Span{
				TraceID:     traceID,
				Hop:         trace.HopCoordinator,
				Stage:       stage,
				Job:         hash,
				Worker:      w.addr,
				StartMicros: start.UnixMicro(),
				DurMicros:   time.Since(start).Microseconds(),
			}
			if err != nil {
				span.Err = err.Error()
			}
			c.spans.Record(span)
			resc <- attemptResult{w: w, resp: resp, err: err}
		}()
	}
	launch(primary, trace.StageDispatch)
	outstanding := 1
	hedged := false

	var hedgeTimer *time.Timer
	var hedgeC <-chan time.Time
	hedgeRetry := time.Duration(0)
	if d := c.hedgeDelay(); d > 0 {
		hedgeTimer = time.NewTimer(d)
		defer hedgeTimer.Stop()
		hedgeC = hedgeTimer.C
		if hedgeRetry = d / 4; hedgeRetry < time.Millisecond {
			hedgeRetry = time.Millisecond
		}
	}

	var lastErr error
	for outstanding > 0 {
		select {
		case r := <-resc:
			outstanding--
			if r.err == nil && r.resp.Interrupted {
				// The worker drained mid-job and answered with a
				// checkpoint. Don't route back there; hand the snapshot up
				// for re-dispatch.
				cancel()
				exclude[r.w.addr] = true
				return simjob.JobResult{}, "", &migratedError{
					addr: r.w.addr, cycle: r.resp.CheckpointCycle, ckpt: r.resp.Checkpoint,
				}
			}
			if r.err == nil {
				cancel()
				if outstanding > 0 {
					// The racing duplicate's eventual result is dropped:
					// its goroutine sends into the buffered channel and
					// exits, nothing reads it.
					c.mu.Lock()
					c.ctr.HedgeDiscarded++
					c.mu.Unlock()
				}
				if hedged && r.w != primary {
					c.mu.Lock()
					c.ctr.HedgeWins++
					c.mu.Unlock()
				}
				return r.resp.Result, r.resp.Cached, nil
			}
			exclude[r.w.addr] = true
			lastErr = r.err
			if ctx.Err() != nil {
				cancel()
			}
			// With a hedge still in flight, wait for it — it may yet
			// win this attempt.
		case <-hedgeC:
			// The hedge must go to a different worker than the primary
			// but must not mark the primary failed.
			ex := make(map[string]bool, len(exclude)+1)
			for a := range exclude {
				ex[a] = true
			}
			ex[primary.addr] = true
			if hw := c.reg.tryAcquire(hash, ex); hw != nil {
				hedgeC = nil
				hedged = true
				c.mu.Lock()
				c.ctr.Hedges++
				c.mu.Unlock()
				launch(hw, trace.StageHedge)
				outstanding++
			} else {
				// Every other worker is saturated right now; keep the
				// straggler hedgeable instead of giving up on it.
				hedgeTimer.Reset(hedgeRetry)
			}
		}
	}
	return simjob.JobResult{}, "", lastErr
}

// hedgeDelay is the current straggler threshold: the configured
// quantile of the recent-latency window, floored at HedgeMin; 0 while
// hedging is inactive (disabled, or not enough samples yet).
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.opts.HedgeOff {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.latency.Len() < c.opts.HedgeMinSamples {
		return 0
	}
	d := time.Duration(c.latency.Quantile(c.opts.HedgeQuantile)) * time.Microsecond
	if d < c.opts.HedgeMin {
		d = c.opts.HedgeMin
	}
	return d
}

func (c *Coordinator) observeLatency(d time.Duration) {
	c.mu.Lock()
	c.latency.Observe(int(d.Microseconds()))
	c.mu.Unlock()
}

// sleepBackoff waits base*2^(retry-1) capped at BackoffMax, jittered
// uniformly over [d/2, d], or returns early when ctx ends.
func (c *Coordinator) sleepBackoff(ctx context.Context, retry int) error {
	d := c.opts.BackoffBase << (retry - 1)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	c.mu.Lock()
	d = d/2 + time.Duration(c.rng.Int63n(int64(d/2)+1))
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Spans exposes the coordinator-hop span log (stage breakdowns feed
// the cluster /metrics Prometheus output).
func (c *Coordinator) Spans() *trace.SpanLog { return c.spans }

// GatherSpans merges the coordinator's own spans with every worker's
// (their worker- and engine-hop spans fetched over GET /spans), sorted
// by start time. Workers that cannot be reached are skipped — a
// partial trace beats no trace. traceID "" gathers everything held.
func (c *Coordinator) GatherSpans(ctx context.Context, traceID string) []trace.Span {
	out := c.spans.ByTrace(traceID)
	for _, cl := range c.reg.clients() {
		spans, err := cl.Spans(ctx, traceID)
		if err != nil {
			continue
		}
		out = append(out, spans...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].StartMicros < out[j].StartMicros
	})
	return out
}

// Sweep scatter/gathers a sweep across the cluster: the expansion is
// deduplicated by content hash, every unique point routed through Do
// concurrently, and the results fanned back out to expansion order.
// onItem, when non-nil, streams each unique point's completion
// (done/total are unique-point counts); it is called serially.
func (c *Coordinator) Sweep(ctx context.Context, sw simjob.SweepSpec, onItem func(done, total int, item simjob.SweepItem)) (*simjob.SweepResult, error) {
	unique, index, err := sw.ExpandHashed()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	return simjob.GatherSweep(unique, index, func(u int) (simjob.JobResult, string, error) {
		return c.Do(ctx, unique[u].Spec)
	}, onItem), nil
}
