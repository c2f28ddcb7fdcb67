package simjob

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"

	"bow/internal/artifact"
)

// DefaultWarmupCycles is the shared-prefix length RunSweepForked
// simulates before forking when SweepSpec.WarmupCycles is zero. Short
// enough that every bundled workload outlives it, long enough to fill
// the caches and pipelines the sweep points inherit.
const DefaultWarmupCycles = 256

// forkClass identifies a set of sweep points that can share a warm-up
// prefix: everything that shapes the simulation *before* the window
// policy diverges must match. The window configuration itself
// (policy, IW, capacity) is deliberately absent — the warm-up runs
// under the baseline policy, whose operand windows are always empty,
// which is exactly the state every window configuration can restore
// (core.Engine.LoadState accepts a snapshot with empty windows into
// any config, and gpu.ConfigHash excludes the window config).
type forkClass struct {
	Bench     string
	SMs       int
	Scheduler string
	MaxCycles int64
}

// forkable reports whether a point may join a prefix class. Points
// with per-point compiler passes or observation modes that change the
// simulated instruction stream or serialization (Reorder reorders code
// per-IW, ReferenceLoop refuses snapshots, Trace wants the whole run
// captured) run cold instead.
func forkable(sp JobSpec) bool {
	return !sp.Reorder && !sp.Trace && !sp.ReferenceLoop && len(sp.FromCheckpoint) == 0
}

// RunSweepForked is RunSweep with shared warm-up prefix forking: sweep
// points in the same prefix class simulate their first WarmupCycles
// once (under the baseline policy), snapshot, and every point resumes
// from the snapshot instead of re-simulating the prefix. For a class
// of N points that saves W*(N-1) simulated cycles, reported in
// SweepResult.ReusedCycles and per item in JobResult.ReusedCycles.
//
// The trade is explicit: a forked point's timing statistics carry a
// baseline-policy warm-up, so they are approximations of the cold run
// (functional results are unaffected — the self-checks still run).
// Forked outcomes are therefore executed outside the engine's cache
// and never stored under the cold spec's hash; ReusedCycles marks
// them. Classes whose kernel finishes inside the warm-up, singleton
// classes, and unforkable points (Reorder, Trace, ReferenceLoop) fall
// back to ordinary cold runs through the engine.
func (e *Engine) RunSweepForked(ctx context.Context, sw SweepSpec) (*SweepResult, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	warm := sw.WarmupCycles
	if warm <= 0 {
		warm = DefaultWarmupCycles
	}

	groups := make(map[forkClass][]int, len(specs))
	var order []forkClass
	for i, sp := range specs {
		if !forkable(sp) {
			continue
		}
		c := forkClass{Bench: sp.Bench, SMs: sp.SMs, Scheduler: sp.Scheduler, MaxCycles: sp.MaxCycles}
		if len(groups[c]) == 0 {
			order = append(order, c)
		}
		groups[c] = append(groups[c], i)
	}

	res := &SweepResult{Jobs: len(specs), Items: make([]SweepItem, len(specs))}
	forked := make([]bool, len(specs))

	// Warm up every class concurrently on the pool-sized semaphore —
	// classes are independent simulations, and running them serially
	// would put one bench's warm-up on the critical path of another's
	// forks. Then fork the classes, and finally sweep up everything
	// that stayed cold through the normal engine path.
	sem := make(chan struct{}, e.Workers())
	ctx = withCarcassPool(ctx, e.pool)
	blobs := make([][]byte, len(order))
	warmedAt := make([]int64, len(order))
	var wwg sync.WaitGroup
	for oi, c := range order {
		if len(groups[c]) < 2 {
			continue
		}
		wwg.Add(1)
		go func(oi int, c forkClass) {
			defer wwg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			blob, warmed, err := warmupSnapshot(ctx, c, warm)
			if err == nil && blob != nil {
				blobs[oi], warmedAt[oi] = blob, warmed
			}
		}(oi, c)
	}
	wwg.Wait()

	var wg sync.WaitGroup
	for oi, c := range order {
		idxs := groups[c]
		if len(idxs) < 2 {
			continue // nothing shared to reuse
		}
		blob, warmed := blobs[oi], warmedAt[oi]
		if blob == nil {
			// Warm-up failed or the kernel finished inside it: the class
			// runs cold. A kernel that cannot even start (bad spec) will
			// report its error from the cold path.
			continue
		}
		res.ForkGroups++
		res.ReusedCycles += warmed * int64(len(idxs)-1)
		for _, i := range idxs {
			forked[i] = true
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				sp := specs[i]
				sp.FromCheckpoint = blob
				sp.checkpointVerified = true
				item := SweepItem{Spec: specs[i], Cached: "forked"}
				out, err := Execute(ctx, sp)
				if err != nil {
					item.Error = err.Error()
					item.Cached = ""
				} else {
					sum := out.Summary
					sum.ReusedCycles = out.ResumedFrom
					item.Result = &sum
				}
				res.Items[i] = item
			}(i)
		}
	}

	tickets := make([]*Ticket, len(specs))
	for i, spec := range specs {
		if !forked[i] {
			tickets[i] = e.Submit(ctx, spec)
		}
	}
	for i, t := range tickets {
		if t == nil {
			continue
		}
		item := SweepItem{Spec: specs[i]}
		out, err := t.WaitContext(ctx)
		if err != nil {
			item.Error = err.Error()
		} else {
			item.Cached = out.Cached
			sum := out.Summary
			item.Result = &sum
		}
		res.Items[i] = item
	}
	wg.Wait()
	for i := range res.Items {
		if res.Items[i].Error != "" {
			res.Failed++
		}
	}
	return res, nil
}

// warmupSnapshot simulates the class's shared prefix — the benchmark
// under the baseline policy — for `until` cycles and returns the
// snapshot stream plus the cycle it was taken at. A nil blob with nil
// error means the kernel completed inside the warm-up (nothing to
// fork). The warm-up device comes from, and returns to, the carcass
// pool in ctx.
func warmupSnapshot(ctx context.Context, c forkClass, until int64) ([]byte, int64, error) {
	spec, err := JobSpec{
		Bench: c.Bench, Policy: PolicyBaseline, SMs: c.SMs,
		Scheduler: c.Scheduler, MaxCycles: c.MaxCycles,
	}.Normalize()
	if err != nil {
		return nil, 0, err
	}
	bcfg, err := spec.coreConfig()
	if err != nil {
		return nil, 0, err
	}
	// Warm-ups draw from the shared artifact layer like any other cold
	// run: only forkable specs reach here (no Reorder, baseline policy),
	// so the kernel key is the plain parsed program.
	pk, err := artifact.Default.Kernel(artifact.KeyFor(spec.Bench, false, artifact.HintsNone, 0))
	if err != nil {
		return nil, 0, err
	}
	img, err := artifact.Default.Image(spec.Bench)
	if err != nil {
		return nil, 0, err
	}
	pool := carcassPoolFrom(ctx)
	d, err := pool.build(spec.gpuConfig(), bcfg, pk.NewSMKernel(), img.NewMemory())
	if err != nil {
		return nil, 0, err
	}
	_, done, err := d.RunUntil(ctx, spec.MaxCycles, until)
	defer pool.put(d, err)
	if err != nil {
		return nil, 0, err
	}
	if done {
		return nil, 0, nil
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if _, err := d.Snapshot(&buf, specJSON); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), d.Cycles(), nil
}
