package simjob

import (
	"context"
	"sync"
)

// A sweep runs in two phases. planSweep turns the SweepSpec into an
// explicit sweepPlan — unique points, cache hits, and the steps that
// will simulate the rest — without simulating anything. RunSweep then
// executes the plan in one loop: one Workers-sized semaphore for the
// fork steps, the engine's pool for cold points and for every point a
// fork step hands back, and GatherSweep — the fill every sweep server
// shares — to turn per-point results into expansion-ordered
// SweepItems.

// sweepClass identifies sweep points that can share work: same
// benchmark, same machine shape, same cycle bound. The window
// configuration (policy, IW, capacity) is deliberately absent — it is
// what varies inside a class. A fork step shares one baseline warm-up
// across the class.
type sweepClass struct {
	Bench     string
	SMs       int
	Scheduler string
	MaxCycles int64
}

func classOf(sp JobSpec) sweepClass {
	return sweepClass{Bench: sp.Bench, SMs: sp.SMs, Scheduler: sp.Scheduler, MaxCycles: sp.MaxCycles}
}

type stepKind uint8

const (
	// stepCold submits each point to the engine pool as its own job.
	stepCold stepKind = iota
	// stepFork simulates the class's warm-up once and forks every
	// point from its snapshot.
	stepFork
)

// sweepStep is one unit of a plan: a kind and the unique points (indices
// into sweepPlan.points) it simulates.
type sweepStep struct {
	kind   stepKind
	points []int
}

// sweepPlan is a planned sweep. Every unique point is either a cache
// hit or belongs to exactly one step.
type sweepPlan struct {
	points []HashedSpec // unique points, in first-seen expansion order
	index  []int        // expansion index -> points index
	hits   []*Outcome   // per point: the cache hit, nil on a miss
	steps  []sweepStep
	warmup int64 // fork steps' warm-up length
}

// planSweep expands and deduplicates the sweep, probes the cache once
// per unique point, and groups the misses into steps. With ForkPrefix,
// each class of two or more points becomes one fork step. Everything
// else lands in a single cold step; Batch and BatchSize are ignored.
// Every expanded point can join a step: a SweepSpec cannot ask for
// what a step cannot do cold or restore into (FromCheckpoint, Reorder,
// Trace, ReferenceLoop).
func (e *Engine) planSweep(ctx context.Context, sw SweepSpec) (*sweepPlan, error) {
	points, index, err := sw.ExpandHashed()
	if err != nil {
		return nil, err
	}
	p := &sweepPlan{points: points, index: index, hits: make([]*Outcome, len(points)), warmup: sw.WarmupCycles}
	if p.warmup <= 0 {
		p.warmup = DefaultWarmupCycles
	}
	var cold []int
	groups := make(map[sweepClass][]int)
	var order []sweepClass
	for u, pt := range points {
		if out, ok := e.lookup(ctx, pt.Hash, false); ok {
			p.hits[u] = out
			continue
		}
		if !sw.ForkPrefix {
			cold = append(cold, u)
			continue
		}
		c := classOf(pt.Spec)
		if len(groups[c]) == 0 {
			order = append(order, c)
		}
		groups[c] = append(groups[c], u)
	}
	for _, c := range order {
		if idxs := groups[c]; len(idxs) < 2 {
			cold = append(cold, idxs...)
		} else {
			p.steps = append(p.steps, sweepStep{kind: stepFork, points: idxs})
		}
	}
	if len(cold) > 0 {
		p.steps = append(p.steps, sweepStep{kind: stepCold, points: cold})
	}
	return p, nil
}

// pointResult is one unique point's outcome.
type pointResult struct {
	cached string
	sum    JobResult
	err    error
}

func settled(out *Outcome, err error) pointResult {
	if err != nil {
		return pointResult{err: err}
	}
	return pointResult{cached: out.Cached, sum: out.Summary}
}

// sweepRun is the state of one executing plan.
type sweepRun struct {
	e    *Engine
	ctx  context.Context
	plan *sweepPlan
	sem  chan struct{} // bounds concurrent fork work to Workers
	wg   sync.WaitGroup

	// Each index of results and tickets is written by exactly one
	// goroutine: the step that owns the point, or runEngine.
	results []pointResult
	tickets []*Ticket

	mu  sync.Mutex // guards res's fork totals
	res *SweepResult
}

// RunSweep plans the sweep and runs the plan, collecting results in
// expansion order. Cache hits are served as planned; fork steps run
// concurrently on a Workers-sized semaphore; cold points — and any
// point a fork step hands back (a warm-up that failed or finished the
// kernel) — run as ordinary engine jobs with single-flight, peer fill,
// retries, and spans. Individual point failures are reported inline;
// only expansion errors fail the sweep as a whole.
func (e *Engine) RunSweep(ctx context.Context, sw SweepSpec) (*SweepResult, error) {
	plan, err := e.planSweep(ctx, sw)
	if err != nil {
		return nil, err
	}
	r := &sweepRun{
		e:       e,
		ctx:     withCarcassPool(ctx, e.pool),
		plan:    plan,
		sem:     make(chan struct{}, e.Workers()),
		results: make([]pointResult, len(plan.points)),
		tickets: make([]*Ticket, len(plan.points)),
		res:     &SweepResult{},
	}
	for u, hit := range plan.hits {
		if hit != nil {
			r.results[u] = settled(hit, nil)
		}
	}
	for _, st := range plan.steps {
		switch st.kind {
		case stepCold:
			for _, u := range st.points {
				r.runEngine(u)
			}
		case stepFork:
			r.wg.Add(1)
			go r.fork(st.points)
		}
	}
	r.wg.Wait()

	res := GatherSweep(plan.points, plan.index, func(u int) (JobResult, string, error) {
		pr := r.results[u]
		if t := r.tickets[u]; t != nil {
			pr = settled(t.WaitContext(ctx))
		}
		return pr.sum, pr.cached, pr.err
	}, nil)
	res.ForkGroups, res.ReusedCycles = r.res.ForkGroups, r.res.ReusedCycles
	return res, nil
}

// runEngine submits point u to the engine pool. Its cache probe
// already missed during planning, so the job is enqueued directly.
func (r *sweepRun) runEngine(u int) {
	pt := r.plan.points[u]
	r.tickets[u] = r.e.enqueue(r.ctx, pt.Spec, pt.Hash, false)
}

// acquire takes a semaphore slot; the returned func releases it.
func (r *sweepRun) acquire() func() {
	r.sem <- struct{}{}
	return func() { <-r.sem }
}
