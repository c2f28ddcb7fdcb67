// Package experiments regenerates every table and figure of the BOW
// paper's evaluation (see DESIGN.md's experiment index). Each experiment
// is a function over a Runner, returning a structured result with a
// Render method; cmd/bowbench prints them, bench_test.go wraps them in
// testing.B benchmarks, and the test suite asserts their shapes.
package experiments

import (
	"context"
	"fmt"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/gpu"
	"bow/internal/simjob"
	"bow/internal/workloads"
)

// Runner executes benchmarks under bypass configurations, memoizing
// results so the figure generators can share runs. When Engine is set,
// every point is submitted through the concurrent simulation job
// engine instead of being simulated inline — identical points are
// deduplicated across figures and independent points run in parallel
// (see Prewarm).
type Runner struct {
	GCfg      config.GPU
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

// NewRunner builds a runner on the scaled-down simulation config.
func NewRunner() *Runner {
	g := config.SimDefault()
	g.NumSMs = 1
	return &Runner{GCfg: g}
}

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

	res, err := r.simulate(b, bcfg, reorder, trace)
	if err != nil {
		return nil, err
	}
	r.cache[key] = res
	return res, nil
}

// simulate dispatches one point: through the engine when possible,
// inline otherwise.
func (r *Runner) simulate(b *workloads.Benchmark, bcfg core.Config, reorder, trace bool) (*gpu.Result, error) {
	if spec, ok := r.engineSpec(b, bcfg, reorder, trace); ok {
		out, err := r.Engine.DoFull(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		return out.Full, nil
	}
	return r.simulateInline(b, bcfg, reorder, trace)
}

// engineSpec maps the point onto a JobSpec when an engine is attached
// and the runner's GPU config is expressible as one (SimDefault modulo
// SM count and scheduler — custom chip geometries fall back to the
// inline path).
func (r *Runner) engineSpec(b *workloads.Benchmark, bcfg core.Config, reorder, trace bool) (simjob.JobSpec, bool) {
	if r.Engine == nil {
		return simjob.JobSpec{}, false
	}
	ref := config.SimDefault()
	ref.NumSMs = r.GCfg.NumSMs
	ref.Scheduler = r.GCfg.Scheduler
	if r.GCfg != ref {
		return simjob.JobSpec{}, false
	}
	spec, ok := simjob.SpecFromConfig(b.Name, bcfg, r.GCfg.NumSMs, r.GCfg.Scheduler, r.MaxCycles)
	if !ok {
		return simjob.JobSpec{}, false
	}
	spec.Reorder = reorder
	spec.Trace = trace
	return spec, true
}

// simulateInline is the engine-less path: one simulation on the
// calling goroutine against the runner's own GPU config. Preparation
// comes from the shared artifact layer: registered benchmarks draw
// from the process-wide cache (a figure re-running a bench reuses its
// prepared kernel and sealed memory image), unregistered benchmark
// values build uncached.
func (r *Runner) simulateInline(b *workloads.Benchmark, bcfg core.Config, reorder, trace bool) (*gpu.Result, error) {
	key := artifact.KeyForConfig(b.Name, bcfg, reorder)
	var (
		pk  *artifact.Kernel
		img *artifact.Image
		err error
	)
	if reg, rerr := workloads.ByName(b.Name); rerr == nil && reg == b {
		pk, err = artifact.Default.Kernel(key)
		if err == nil {
			img, err = artifact.Default.Image(b.Name)
		}
	} else {
		pk, err = artifact.BuildKernelFor(b, key)
		if err == nil {
			img, err = artifact.BuildImageFor(b)
		}
	}
	if err != nil {
		return nil, err
	}
	m := img.NewMemory()
	d, err := gpu.New(r.GCfg, bcfg, pk.NewSMKernel(), m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	d.CaptureTrace = trace
	res, err := d.Run(r.MaxCycles)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if b.Check != nil {
		if err := b.Check(m); err != nil {
			label := b.Name
			if reorder {
				label += " (reordered)"
			}
			return nil, fmt.Errorf("%s (%v): functional check failed: %w", label, bcfg.Policy, err)
		}
	}
	return res, nil
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
