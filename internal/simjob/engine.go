package simjob

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"bow/internal/stats"
	"bow/internal/trace"
)

// Options configures an Engine.
type Options struct {
	// Workers is the worker pool size (<= 0 selects
	// runtime.GOMAXPROCS(0)); it also bounds the carcass pool.
	Workers int
	// Retries is how many extra attempts a failed job gets before its
	// error is reported (panics and simulator errors alike; context
	// cancellation is never retried).
	Retries int
	// Timeout bounds each job's simulation (0 = no engine-imposed
	// bound; the submitter's context still applies).
	Timeout time.Duration
	// CacheSize is the in-memory LRU capacity (<= 0 = 4096).
	CacheSize int
	// CacheDir enables the on-disk summary tier when non-empty.
	CacheDir string
	// Peers lists sibling worker base URLs for peer-to-peer cache fill:
	// on a local cache miss the engine asks peers (rendezvous order) for
	// their cached result before simulating. See peer.go.
	Peers []string
	// PeerTimeout bounds each peer probe (0 = 2s).
	PeerTimeout time.Duration
	// PeerHTTPClient overrides the peer-fill HTTP client (tests).
	PeerHTTPClient *http.Client
}

// Engine runs simulation jobs on a fixed worker pool, deduplicating
// concurrent identical specs (single-flight) and memoizing finished
// ones in the two-tier cache. A panicking job is isolated to an error
// result — it never takes the pool down.
type Engine struct {
	opts  Options
	cache *Cache
	drain *DrainController
	pool  *carcassPool // retired device carcasses, at most Workers
	peers []*Client    // peer-fill clients, rendezvous-ranked per hash

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*job
	inflight map[string]*job
	closed   bool
	wg       sync.WaitGroup

	// execute is the job body; tests may stub it to inject failures.
	execute func(context.Context, JobSpec) (*Outcome, error)

	// spans records the engine-hop stages (queue, engine, cache) of
	// every job, keyed to the submitter's trace ID when present.
	spans *trace.SpanLog

	// Counters (guarded by mu).
	queued, running, done, failed, retries int64
	peerHits, peerMisses                   int64
	latencyUS                              *stats.Histogram
}

// job is one queued unit of work, fanned out to every ticket waiting
// on the same spec hash.
type job struct {
	spec JobSpec
	hash string
	// ctx carries the first submitter's values (its trace ID)
	// but not its cancellation: cancel ends it once every waiter's
	// context has ended (see watch).
	ctx       context.Context
	cancel    context.CancelFunc
	waiting   int           // tickets whose submitter context is live
	stops     []func() bool // deregister the per-ticket watches
	tickets   []*Ticket
	needFull  bool      // some waiter demands the full simulator result
	traceID   string    // first submitter's trace ID (spans)
	submitted time.Time // enqueue time (queue-stage span)
}

// Ticket is a handle on a submitted job.
type Ticket struct {
	done chan struct{}
	out  *Outcome
	err  error
}

// Wait blocks until the job finishes (or ctx is done, whichever the
// worker observes) and returns its outcome.
func (t *Ticket) Wait() (*Outcome, error) {
	<-t.done
	return t.out, t.err
}

// WaitContext is Wait that also gives up when ctx ends: this caller
// returns ctx's error immediately, while the job keeps running for any
// other ticket still waiting on it (it stops once every submitter's
// context has ended). The HTTP handlers wait this way so a cancelled
// request — a hedge the coordinator abandoned, a client gone away —
// releases its handler (and the in-flight gauge decremented by its
// defer) right away instead of pinning it until the simulation
// finishes.
func (t *Ticket) WaitContext(ctx context.Context) (*Outcome, error) {
	select {
	case <-t.done:
		return t.out, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (t *Ticket) resolve(out *Outcome, err error) {
	t.out, t.err = out, err
	close(t.done)
}

// New builds an engine and starts its workers.
func New(opts Options) (*Engine, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	cache, err := NewCache(opts.CacheSize, opts.CacheDir)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		opts:      opts,
		cache:     cache,
		drain:     NewDrainController(),
		pool:      newCarcassPool(opts.Workers),
		inflight:  make(map[string]*job),
		execute:   Execute,
		spans:     trace.NewSpanLog(0),
		latencyUS: stats.NewHistogram(),
	}
	for _, p := range opts.Peers {
		e.peers = append(e.peers, NewClient(p, opts.PeerHTTPClient))
	}
	e.cond = sync.NewCond(&e.mu)
	e.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go e.worker()
	}
	return e, nil
}

// Close stops the workers after the queue drains. Submitting after
// Close fails.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.wg.Wait()
}

// Submit enqueues a spec and returns immediately; the ticket resolves
// with a summary-level outcome (a disk cache hit may carry no full
// simulator result).
func (e *Engine) Submit(ctx context.Context, spec JobSpec) *Ticket {
	return e.submit(ctx, spec, false)
}

// SubmitFull is Submit for consumers that need the complete simulator
// result (Outcome.Full non-nil on success): only the memory tier can
// short-circuit it.
func (e *Engine) SubmitFull(ctx context.Context, spec JobSpec) *Ticket {
	return e.submit(ctx, spec, true)
}

// Do submits and waits, giving up (without aborting the job for other
// waiters) when ctx ends.
func (e *Engine) Do(ctx context.Context, spec JobSpec) (*Outcome, error) {
	return e.Submit(ctx, spec).WaitContext(ctx)
}

// DoFull submits with SubmitFull and waits, ctx-bounded like Do.
func (e *Engine) DoFull(ctx context.Context, spec JobSpec) (*Outcome, error) {
	return e.SubmitFull(ctx, spec).WaitContext(ctx)
}

func (e *Engine) submit(ctx context.Context, spec JobSpec, needFull bool) *Ticket {
	norm, err := spec.Normalize()
	if err != nil {
		return resolved(nil, err)
	}
	hash, err := norm.Hash()
	if err != nil {
		return resolved(nil, err)
	}
	if out, ok := e.lookup(ctx, hash, needFull); ok {
		return resolved(out, nil)
	}
	return e.enqueue(ctx, norm, hash, needFull)
}

func resolved(out *Outcome, err error) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	t.resolve(out, err)
	return t
}

// lookup probes the result cache for a spec hash, recording the
// cache-stage span on a hit.
func (e *Engine) lookup(ctx context.Context, hash string, needFull bool) (*Outcome, bool) {
	start := time.Now()
	out, ok := e.cache.Get(hash, needFull)
	if ok {
		e.spans.Record(trace.Span{
			TraceID:     trace.IDFromContext(ctx),
			Hop:         trace.HopEngine,
			Stage:       trace.StageCache,
			Job:         hash,
			StartMicros: start.UnixMicro(),
			DurMicros:   time.Since(start).Microseconds(),
		})
	}
	return out, ok
}

// enqueue queues a job for a normalized spec whose cache probe already
// missed, or joins the in-flight twin with the same hash.
func (e *Engine) enqueue(ctx context.Context, norm JobSpec, hash string, needFull bool) *Ticket {
	t := &Ticket{done: make(chan struct{})}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		t.resolve(nil, fmt.Errorf("simjob: engine closed"))
		return t
	}
	if j, ok := e.inflight[hash]; ok {
		// Single-flight: a running or queued twin will satisfy this
		// ticket too (execution always produces the full result).
		j.tickets = append(j.tickets, t)
		j.needFull = j.needFull || needFull
		e.watch(j, ctx)
		e.mu.Unlock()
		return t
	}
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	j := &job{spec: norm, hash: hash, ctx: jctx, cancel: cancel, tickets: []*Ticket{t},
		needFull: needFull,
		traceID:  trace.IDFromContext(ctx), submitted: time.Now()}
	e.watch(j, ctx)
	e.inflight[hash] = j
	e.queue = append(e.queue, j)
	e.queued++
	e.cond.Signal()
	e.mu.Unlock()
	return t
}

// watch counts ctx's submitter as a waiter on j. Once every waiter's
// context has ended nobody wants the result: the job leaves the
// single-flight table, so a later submitter of the same spec starts a
// fresh run instead of joining a doomed one, and the job's context is
// canceled so its simulation stops. Called with e.mu held.
func (e *Engine) watch(j *job, ctx context.Context) {
	j.waiting++
	j.stops = append(j.stops, context.AfterFunc(ctx, func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		if j.waiting--; j.waiting == 0 {
			e.forget(j)
			j.cancel()
		}
	}))
}

// forget removes a finished or abandoned job from the single-flight
// table, unless a fresh run of the same spec already took its place.
// Called with e.mu held.
func (e *Engine) forget(j *job) {
	if e.inflight[j.hash] == j {
		delete(e.inflight, j.hash)
	}
}

// release deregisters a finished job's waiter watches and releases
// its context. Call it after forget, once no waiter can join.
func (j *job) release() {
	for _, stop := range j.stops {
		stop()
	}
	j.cancel()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		j := e.queue[0]
		e.queue = e.queue[1:]
		e.queued--
		e.running++
		e.mu.Unlock()

		// A peer may already hold this result; filling is far cheaper
		// than simulating. needFull is re-checked under mu before the
		// tickets resolve — a SubmitFull waiter that joined during the
		// probe still gets a real execution (the filled summary stays
		// cached either way).
		if out := e.fetchPeer(j); out != nil {
			e.mu.Lock()
			if !j.needFull {
				e.running--
				e.done++
				e.peerHits++
				e.forget(j)
				tickets := j.tickets
				e.mu.Unlock()
				j.release()
				for _, t := range tickets {
					t.resolve(out, nil)
				}
				continue
			}
			e.mu.Unlock()
		}

		start := time.Now()
		e.spans.Record(trace.Span{
			TraceID:     j.traceID,
			Hop:         trace.HopEngine,
			Stage:       trace.StageQueue,
			Job:         j.hash,
			StartMicros: j.submitted.UnixMicro(),
			DurMicros:   start.Sub(j.submitted).Microseconds(),
		})
		out, attempts, err := e.runJob(j)
		elapsed := time.Since(start)

		engineSpan := trace.Span{
			TraceID:     j.traceID,
			Hop:         trace.HopEngine,
			Stage:       trace.StageEngine,
			Job:         j.hash,
			StartMicros: start.UnixMicro(),
			DurMicros:   elapsed.Microseconds(),
		}
		if err != nil {
			engineSpan.Err = err.Error()
		}
		e.spans.Record(engineSpan)

		if err == nil {
			out.Attempts = attempts
			// Cache before resolving so a waiter resubmitting
			// immediately sees the hit. Interrupted outcomes carry a
			// checkpoint instead of a result and must never be cached.
			if !out.Interrupted {
				if cerr := e.cache.Put(out); cerr != nil {
					// A broken disk tier degrades to memory-only; the result
					// itself is still good.
					_ = cerr
				}
			}
		}

		e.mu.Lock()
		e.running--
		if err == nil {
			e.done++
		} else {
			e.failed++
		}
		e.retries += int64(attempts - 1)
		e.latencyUS.Observe(int(elapsed.Microseconds()))
		e.forget(j)
		tickets := j.tickets
		e.mu.Unlock()
		j.release()

		for _, t := range tickets {
			t.resolve(out, err)
		}
	}
}

// runJob executes one job with panic isolation, the engine timeout,
// and bounded retry. It returns the attempt count alongside the
// outcome.
func (e *Engine) runJob(j *job) (*Outcome, int, error) {
	// Every job body sees the engine's drain controller: Drain pauses
	// the in-flight simulations at their next cycle boundary and they
	// come back as Interrupted outcomes carrying checkpoints.
	ctx := WithDrain(j.ctx, e.drain)
	// And the span log, so the body can record its prep stage under the
	// submitter's trace, and the carcass pool its device comes from.
	ctx = withSpanLog(ctx, e.spans)
	ctx = withCarcassPool(ctx, e.pool)
	ctx = trace.ContextWithID(ctx, j.traceID)
	var lastErr error
	for attempt := 1; attempt <= e.opts.Retries+1; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, attempt, fmt.Errorf("simjob: job canceled: %w", err)
		}
		out, err := e.safeExecute(ctx, j.spec)
		if err == nil {
			return out, attempt, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The failure was (or was caused by) cancellation; retrying
			// cannot help.
			return nil, attempt, lastErr
		}
	}
	return nil, e.opts.Retries + 1, lastErr
}

// safeExecute is the guard every simulation the engine starts runs
// under: the Options.Timeout bound, and panic isolation converting a
// panic into an error so one bad job cannot kill the pool.
func (e *Engine) safeExecute(ctx context.Context, spec JobSpec) (out *Outcome, err error) {
	if e.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("simjob: job panicked: %v", r)
		}
	}()
	return e.execute(ctx, spec)
}

// Drain interrupts every in-flight simulation at its next cycle
// boundary; their jobs resolve with Interrupted outcomes carrying
// resumable checkpoints, and jobs starting afterwards checkpoint
// immediately. cmd/bowd calls this on SIGTERM so a coordinator can
// migrate the half-finished work instead of restarting it from cycle
// 0. Cache hits are unaffected (they involve no simulation).
func (e *Engine) Drain() { e.drain.Drain() }

// Draining reports whether Drain has been called.
func (e *Engine) Draining() bool { return e.drain.Draining() }

// Cache exposes the engine's result cache (read-mostly: tests and the
// daemon's metrics use it).
func (e *Engine) Cache() *Cache { return e.cache }

// Spans exposes the engine-hop span log (the worker server serves it
// on GET /spans and folds its stage breakdowns into /metrics).
func (e *Engine) Spans() *trace.SpanLog { return e.spans }

// Workers is the pool size.
func (e *Engine) Workers() int { return e.opts.Workers }
