// Package experiments regenerates every table and figure of the BOW
// paper's evaluation (see DESIGN.md's experiment index). Each experiment
// is a function over a Runner, returning a structured result with a
// Render method; cmd/bowbench prints them, bench_test.go wraps them in
// testing.B benchmarks, and the test suite asserts their shapes.
package experiments

import (
	"context"
	"fmt"

	"bow/internal/core"
	"bow/internal/gpu"
	"bow/internal/simjob"
	"bow/internal/workloads"
)

// Runner executes benchmarks under bypass configurations, memoizing
// results so the figure generators can share runs. Every point is a
// simjob.JobSpec on the scaled-down single-SM simulation config, run by
// simjob.Execute on the calling goroutine — or, when Engine is set,
// submitted through the concurrent simulation job engine, which
// deduplicates identical points across figures and runs independent
// points in parallel (see Prewarm).
type Runner struct {
	MaxCycles int64

	// Engine, when non-nil, routes runs through the job engine's
	// worker pool and two-tier cache. NewEngineRunner sets it.
	Engine *simjob.Engine

	cache map[runKey]*gpu.Result
}

type runKey struct {
	bench   string
	cfg     core.Config
	reorder bool
	trace   bool
}

// NewRunner builds a runner that simulates inline.
func NewRunner() *Runner { return &Runner{} }

// NewEngineRunner is NewRunner submitting through the given job
// engine.
func NewEngineRunner(e *simjob.Engine) *Runner {
	r := NewRunner()
	r.Engine = e
	return r
}

// Run executes one benchmark under one bypass configuration; the
// kernel gets whichever compiler passes the configuration's policy
// consumes (artifact.KeyForConfig).
func (r *Runner) Run(b *workloads.Benchmark, bcfg core.Config) (*gpu.Result, error) {
	return r.run(b, bcfg, false, false)
}

// RunReordered is Run with the footnote-1 compiler scheduling pass
// applied before window analysis (and before hint annotation, so the
// hints stay sound).
func (r *Runner) RunReordered(b *workloads.Benchmark, bcfg core.Config) (*gpu.Result, error) {
	return r.run(b, bcfg, true, false)
}

// RunTraced runs the benchmark under the baseline policy with per-warp
// dynamic traces captured (the reuse-distance study's input).
func (r *Runner) RunTraced(b *workloads.Benchmark) (*gpu.Result, error) {
	return r.run(b, core.Config{Policy: core.PolicyBaseline}, false, true)
}

// Baseline runs the benchmark with bypassing disabled.
func (r *Runner) Baseline(b *workloads.Benchmark) (*gpu.Result, error) {
	return r.Run(b, core.Config{Policy: core.PolicyBaseline})
}

func (r *Runner) run(b *workloads.Benchmark, bcfg core.Config, reorder, trace bool) (*gpu.Result, error) {
	bcfg, err := bcfg.Normalize()
	if err != nil {
		return nil, err
	}
	key := runKey{bench: b.Name, cfg: bcfg, reorder: reorder, trace: trace}
	if r.cache == nil {
		r.cache = make(map[runKey]*gpu.Result)
	}
	if res, ok := r.cache[key]; ok {
		return res, nil
	}

	spec, err := r.spec(b, bcfg, reorder, trace)
	if err != nil {
		return nil, err
	}
	var out *simjob.Outcome
	if r.Engine != nil {
		out, err = r.Engine.DoFull(context.Background(), spec)
	} else {
		out, err = simjob.Execute(context.Background(), spec)
	}
	if err != nil {
		return nil, err
	}
	r.cache[key] = out.Full
	return out.Full, nil
}

// spec maps one point onto the JobSpec that simulates it.
func (r *Runner) spec(b *workloads.Benchmark, bcfg core.Config, reorder, trace bool) (simjob.JobSpec, error) {
	spec, ok := simjob.SpecFromConfig(b.Name, bcfg, 0, "", r.MaxCycles)
	if !ok {
		return simjob.JobSpec{}, fmt.Errorf("experiments: %s: config %+v is not expressible as a job spec", b.Name, bcfg)
	}
	spec.Reorder = reorder
	spec.Trace = trace
	return spec, nil
}

// Suite returns the benchmark list every experiment iterates.
func Suite() []*workloads.Benchmark { return workloads.All() }

// geomeanImprovement converts a slice of ratios (new/old) into a mean
// improvement fraction; the paper reports arithmetic means of percent
// improvements, which we follow.
func meanImprovement(ratios []float64) float64 {
	if len(ratios) == 0 {
		return 0
	}
	var sum float64
	for _, x := range ratios {
		sum += x - 1
	}
	return sum / float64(len(ratios))
}
