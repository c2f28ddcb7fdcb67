package simjob

import (
	"context"
	"fmt"
	"time"

	"bow/internal/artifact"
	"bow/internal/gpu"
	"bow/internal/mem"
)

// DefaultBatchSize bounds one lockstep group when SweepSpec.BatchSize
// is zero. Large enough to cover a full window-config column of the
// evaluation sweeps (policies x IWs per bench), small enough that a
// batch's working set of per-warp hot state stays cache-resident.
const DefaultBatchSize = 16

// batch runs one batch step: the chunk's points are stepped as one
// lazily-built, eagerly-drained gpu.Batch on this goroutine, instead
// of one job per pool worker. Kernel and initial-memory preparation is
// shared through the artifact layer, and the interleaving cannot
// change any device's result, so a batched point's JobResult is
// bit-identical to the per-job path and is cached under its cold spec
// hash like any other run.
//
// Each slot's device is built from the engine's carcass pool on its
// first turn, and the moment a slot finishes, its functional check,
// summary, and cache insert run before the siblings advance — so the
// chunk's peak footprint matches the per-job path while the prep and
// the per-job engine machinery are amortized across the chunk.
//
// The chunk's context carries Options.Timeout, scaled by the chunk
// length because the default stride runs the slots one after another;
// a slot that would start past the deadline fails as a timed-out job
// would. A panic takes down the whole lockstep goroutine, so the
// points that had not finished are handed to the engine path, which
// re-runs them under its per-job panic isolation.
func (r *sweepRun) batch(points []int) {
	defer r.wg.Done()
	defer r.acquire()()
	ctx := r.ctx
	if t := r.e.opts.Timeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t*time.Duration(len(points)))
		defer cancel()
	}
	finished := make([]bool, len(points))
	defer func() {
		if p := recover(); p != nil {
			for s, u := range points {
				if !finished[s] {
					r.runEngine(u)
				}
			}
		}
	}()

	kerns := make([]*artifact.Kernel, len(points))
	mems := make([]*mem.Memory, len(points))
	bounds := make([]int64, len(points))
	for s, u := range points {
		bounds[s] = r.plan.points[u].Spec.MaxCycles
	}
	build := func(s int) (*gpu.Device, error) {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("simjob: job canceled: %w", err)
		}
		sp := r.plan.points[points[s]].Spec
		bcfg, err := sp.coreConfig()
		if err != nil {
			return nil, err
		}
		pk, err := artifact.Default.Kernel(artifact.KeyForConfig(sp.Bench, bcfg, sp.Reorder))
		if err != nil {
			return nil, err
		}
		img, err := artifact.Default.Image(sp.Bench)
		if err != nil {
			return nil, err
		}
		m := img.NewMemory()
		// The chunk's slots share one GPU geometry, so under the default
		// stride one carcass from the engine's pool is re-laundered
		// through the whole chunk instead of a device per point.
		d, err := r.e.pool.build(sp.gpuConfig(), bcfg, pk.NewSMKernel(), m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Bench, err)
		}
		d.CaptureTrace = sp.Trace
		kerns[s], mems[s] = pk, m
		return d, nil
	}
	retire := func(d *gpu.Device) { r.e.pool.put(d, nil) }
	b, err := gpu.NewBatchFunc(len(points), bounds, build, retire)
	if err != nil {
		for _, u := range points {
			r.runEngine(u)
		}
		return
	}
	start := time.Now()
	b.OnFinish(func(s int, res *gpu.Result, rerr error) {
		u := points[s]
		pk, m := kerns[s], mems[s]
		kerns[s], mems[s] = nil, nil
		r.results[u] = r.finishSlot(r.plan.points[u], pk, m, res, rerr, start)
		finished[s] = true
	})
	b.Run(ctx)
	if b.SlotCycles() == 0 {
		return // nothing was stepped (every slot failed to start)
	}
	r.mu.Lock()
	r.res.BatchGroups++
	r.res.BatchedJobs += len(points)
	r.slotTicks += b.SlotCycles()
	r.devCycles += b.DeviceCycles()
	r.mu.Unlock()
}

// finishSlot turns one finished batch slot into its point result:
// functional check, summary, and cache insert.
func (r *sweepRun) finishSlot(pt HashedSpec, pk *artifact.Kernel, m *mem.Memory, res *gpu.Result, rerr error, start time.Time) pointResult {
	sp := pt.Spec
	if rerr != nil {
		if pk != nil {
			rerr = fmt.Errorf("%s: %v", pk.Benchmark().Name, rerr)
		}
		return pointResult{err: rerr}
	}
	b := pk.Benchmark()
	checked := false
	if b.Check != nil {
		if cerr := b.Check(m); cerr != nil {
			return pointResult{err: fmt.Errorf("%s (%s): functional check failed: %v", b.Name, sp.Policy, cerr)}
		}
		checked = true
	}
	// The wall clock is the slot's offset into the chunk's run
	// (CanonicalJSON zeroes it, so bit-identity with the per-job path
	// is unaffected).
	out := &Outcome{
		Spec:     sp,
		Hash:     pt.Hash,
		Summary:  summarize(sp, pt.Hash, res, checked, time.Since(start).Nanoseconds()),
		Full:     res,
		Hints:    pk.Hints,
		Attempts: 1,
	}
	if cerr := r.e.cache.Put(out); cerr != nil {
		_ = cerr // degraded disk tier; the result is still good
	}
	return pointResult{cached: "batched", sum: out.Summary}
}

// noteBatches folds one sweep's batch totals into the engine counters
// (the bow_batch_* metric families).
func (e *Engine) noteBatches(groups, jobs, slotTicks, devCycles int64) {
	if groups == 0 && jobs == 0 && slotTicks == 0 {
		return
	}
	e.mu.Lock()
	e.batchGroups += groups
	e.batchJobs += jobs
	e.batchSlotTicks += slotTicks
	e.batchDevCycles += devCycles
	e.mu.Unlock()
}
