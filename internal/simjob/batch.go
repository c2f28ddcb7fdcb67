package simjob

import (
	"context"
	"fmt"
	"sync"
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

// batchClass identifies sweep points that step well together: same
// benchmark, same machine shape, same cycle bound. Points in a class
// share one prepared kernel (via the artifact layer) and differ only
// in window configuration, so lockstep execution walks the same
// instruction array across all of them and the decode metadata stays
// hot instead of being re-fetched per simulation.
type batchClass struct {
	Bench     string
	SMs       int
	Scheduler string
	MaxCycles int64
}

// batchable reports whether a point may join a lockstep batch. Only
// checkpoint resumes are excluded — the batch path builds devices
// cold. Unlike prefix forking, batching is exact: devices share no
// mutable state, so results are bit-identical to per-job runs and may
// be cached under the cold spec hash.
func batchable(sp JobSpec) bool {
	return len(sp.FromCheckpoint) == 0
}

// RunSweepBatched is RunSweep with lockstep multi-config stepping:
// sweep points in the same batch class are advanced one cycle each per
// tick by a single goroutine over a structure-of-arrays view of the
// batch (gpu.Batch), instead of one job per pool worker. Kernel and
// initial-memory preparation is shared through the artifact layer, and
// the interleaving cannot change any device's result, so a batched
// point's JobResult is bit-identical to the per-job path — the batch
// differential suite pins this. Cache hits, checkpoint resumes,
// singleton classes, and batches that fault fall back to the ordinary
// engine path.
func (e *Engine) RunSweepBatched(ctx context.Context, sw SweepSpec) (*SweepResult, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	res := &SweepResult{Jobs: len(specs), Items: make([]SweepItem, len(specs))}

	// Deduplicate by content hash (baseline/rfc collapse their IW
	// dimension) and serve cache hits before planning any batch.
	hashes := make([]string, len(specs))
	primary := make(map[string]int, len(specs))
	var dups [][2]int // (duplicate index, primary index)
	var cold []int
	for i, sp := range specs {
		h, err := sp.Hash()
		if err != nil {
			return nil, err
		}
		hashes[i] = h
		if p, ok := primary[h]; ok {
			dups = append(dups, [2]int{i, p})
			continue
		}
		primary[h] = i
		if out, ok := e.cache.Get(h, false); ok {
			sum := out.Summary
			res.Items[i] = SweepItem{Spec: sp, Cached: out.Cached, Result: &sum}
			continue
		}
		cold = append(cold, i)
	}

	// Partition the cold points: batchable ones group by class and
	// chunk to the batch size; the rest go through the engine.
	size := sw.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	var engineIdx []int
	groups := make(map[batchClass][]int)
	var order []batchClass
	for _, i := range cold {
		sp := specs[i]
		if !batchable(sp) {
			engineIdx = append(engineIdx, i)
			continue
		}
		c := batchClass{Bench: sp.Bench, SMs: sp.SMs, Scheduler: sp.Scheduler, MaxCycles: sp.MaxCycles}
		if len(groups[c]) == 0 {
			order = append(order, c)
		}
		groups[c] = append(groups[c], i)
	}
	var chunks [][]int
	for _, c := range order {
		idxs := groups[c]
		for len(idxs) > size {
			chunks = append(chunks, idxs[:size])
			idxs = idxs[size:]
		}
		if len(idxs) == 1 {
			// A singleton gains nothing from lockstep; the engine path
			// keeps its accounting (spans, retries) intact.
			engineIdx = append(engineIdx, idxs[0])
			continue
		}
		if len(idxs) > 0 {
			chunks = append(chunks, idxs)
		}
	}

	// Step the chunks concurrently on a pool-sized semaphore; each
	// chunk occupies one goroutine regardless of how many simulations
	// it carries.
	sem := make(chan struct{}, e.Workers())
	var wg sync.WaitGroup
	var mu sync.Mutex // guards retry + occupancy accumulators
	var retry []int
	var slotTicks, devCycles int64
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			failed, st, dc := e.runBatchChunk(ctx, specs, hashes, chunk, res.Items)
			mu.Lock()
			retry = append(retry, failed...)
			slotTicks += st
			devCycles += dc
			if st > 0 {
				res.BatchGroups++
				res.BatchedJobs += len(chunk) - len(failed)
			}
			mu.Unlock()
		}(chunk)
	}
	wg.Wait()
	if slotTicks > 0 {
		res.BatchOccupancy = float64(devCycles) / float64(slotTicks)
	}
	e.noteBatches(int64(res.BatchGroups), int64(res.BatchedJobs), slotTicks, devCycles)

	// Everything that stayed cold — unbatchable, singleton, or fallen
	// back after a fault — runs through the normal engine path.
	engineIdx = append(engineIdx, retry...)
	tickets := make([]*Ticket, len(engineIdx))
	for k, i := range engineIdx {
		tickets[k] = e.Submit(ctx, specs[i])
	}
	for k, t := range tickets {
		i := engineIdx[k]
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

	for _, d := range dups {
		item := res.Items[d[1]]
		item.Spec = specs[d[0]]
		res.Items[d[0]] = item
	}
	for i := range res.Items {
		if res.Items[i].Error != "" {
			res.Failed++
		}
	}
	return res, nil
}

// runBatchChunk runs one chunk of sweep points as a lazily-built,
// eagerly-drained gpu.Batch: each slot's device is constructed from
// the shared artifact layer on its first turn, and the moment a slot
// finishes its functional check, summary, and cache insert run before
// the siblings advance — so the chunk's peak footprint matches the
// per-job path (one device in flight per stride window) while the
// artifact prep and the per-job engine machinery are amortized across
// the chunk. It fills the items slice (distinct indices per goroutine
// — no lock needed) and returns indices that must fall back to the
// per-job path (a panicking kernel fault takes down the whole lockstep
// goroutine, so the engine path re-runs the chunk under its per-job
// panic isolation) plus the chunk's slot-cycle and device-cycle totals
// for occupancy accounting.
func (e *Engine) runBatchChunk(ctx context.Context, specs []JobSpec, hashes []string, chunk []int, items []SweepItem) (failed []int, slotTicks, devCycles int64) {
	defer func() {
		if r := recover(); r != nil {
			failed, slotTicks, devCycles = chunk, 0, 0
		}
	}()

	kerns := make([]*artifact.Kernel, len(chunk))
	mems := make([]*mem.Memory, len(chunk))
	bounds := make([]int64, len(chunk))
	for s, i := range chunk {
		bounds[s] = specs[i].MaxCycles
	}

	build := func(s int) (*gpu.Device, error) {
		sp := specs[chunk[s]]
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
		d, err := e.pool.build(sp.gpuConfig(), bcfg, pk.NewSMKernel(), m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sp.Bench, err)
		}
		d.CaptureTrace = sp.Trace
		kerns[s], mems[s] = pk, m
		return d, nil
	}

	retire := func(d *gpu.Device) { e.pool.put(d, nil) }
	batch, err := gpu.NewBatchFunc(len(chunk), bounds, build, retire)
	if err != nil {
		return chunk, 0, 0
	}
	start := time.Now()
	batch.OnFinish(func(s int, r *gpu.Result, rerr error) {
		i := chunk[s]
		sp := specs[i]
		pk, m := kerns[s], mems[s]
		kerns[s], mems[s] = nil, nil
		if rerr != nil {
			if pk != nil {
				items[i] = SweepItem{Spec: sp, Error: fmt.Sprintf("%s: %v", pk.Benchmark().Name, rerr)}
			} else {
				items[i] = SweepItem{Spec: sp, Error: rerr.Error()}
			}
			return
		}
		b := pk.Benchmark()
		checked := false
		if b.Check != nil {
			if cerr := b.Check(m); cerr != nil {
				items[i] = SweepItem{Spec: sp, Error: fmt.Sprintf(
					"%s (%s): functional check failed: %v", b.Name, sp.Policy, cerr)}
				return
			}
			checked = true
		}
		// The wall clock is the slot's offset into the chunk's run
		// (CanonicalJSON zeroes it, so bit-identity with the per-job path
		// is unaffected). Batched results are exact, so they are cached
		// under the cold spec hash like any other run.
		out := &Outcome{
			Spec:     sp,
			Hash:     hashes[i],
			Summary:  summarize(sp, hashes[i], r, checked, time.Since(start).Nanoseconds()),
			Full:     r,
			Hints:    pk.Hints,
			Attempts: 1,
		}
		if cerr := e.cache.Put(out); cerr != nil {
			_ = cerr // degraded disk tier; the result is still good
		}
		sum := out.Summary
		items[i] = SweepItem{Spec: sp, Cached: "batched", Result: &sum}
	})
	batch.Run(ctx)
	return nil, batch.SlotCycles(), batch.DeviceCycles()
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
