package simjob

// DefaultWarmupCycles is the shared-prefix length a forked sweep
// simulates before forking when SweepSpec.WarmupCycles is zero. Short
// enough that every bundled workload outlives it, long enough to fill
// the caches and pipelines the sweep points inherit.
const DefaultWarmupCycles = 256

// fork runs one fork step: the class's shared prefix — the benchmark
// under the baseline policy — is simulated once for the plan's warm-up
// length and snapshotted, and every point resumes from the snapshot
// instead of re-simulating the prefix. For a class of N points that
// saves W*(N-1) simulated cycles, reported in SweepResult.ReusedCycles
// and per item in JobResult.ReusedCycles.
//
// The baseline warm-up works for every window configuration because
// baseline operand windows are always empty, exactly the state any
// config can restore (core.Engine.LoadState accepts a snapshot with
// empty windows into any config, and gpu.ConfigHash excludes the
// window config). The trade is explicit: a forked point's timing
// statistics carry a baseline warm-up, so they approximate the cold
// run (functional results are unaffected — the self-checks still
// run). Forked outcomes therefore never enter the cache under the cold
// spec's hash; ReusedCycles marks them.
//
// The warm-up and every forked point run under the engine's job guard
// (safeExecute). A warm-up that fails, or whose kernel finishes inside
// it, leaves nothing to share: the class's points run as engine jobs.
func (r *sweepRun) fork(points []int) {
	defer r.wg.Done()
	class := r.plan.points[points[0]].Spec
	warmup := JobSpec{
		Bench: class.Bench, Policy: PolicyBaseline, SMs: class.SMs,
		Scheduler: class.Scheduler, MaxCycles: class.MaxCycles,
	}
	release := r.acquire()
	warm, err := r.e.safeExecute(r.ctx, warmup, r.plan.warmup)
	release()
	if err != nil || !warm.Interrupted {
		for _, u := range points {
			r.runEngine(u)
		}
		return
	}

	r.mu.Lock()
	r.res.ForkGroups++
	r.res.ReusedCycles += warm.CheckpointCycle * int64(len(points)-1)
	r.mu.Unlock()
	// Fork the points concurrently: one class's forks must not queue
	// behind each other while other workers idle.
	r.wg.Add(len(points))
	for _, u := range points {
		go func(u int) {
			defer r.wg.Done()
			defer r.acquire()()
			sp := r.plan.points[u].Spec
			sp.FromCheckpoint, sp.checkpointVerified = warm.Checkpoint, true
			out, err := r.e.safeExecute(r.ctx, sp, 0)
			pr := settled(out, err)
			if err == nil {
				pr.cached = "forked"
				pr.sum.ReusedCycles = out.ResumedFrom
			}
			r.results[u] = pr
		}(u)
	}
}
