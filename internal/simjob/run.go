package simjob

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"bow/internal/artifact"
	"bow/internal/gpu"
	"bow/internal/mem"
	"bow/internal/trace"
)

// Execute runs one job to completion on the calling goroutine: acquire
// the prepared kernel and initial memory image from the shared
// artifact layer (parse + compiler passes + Init run once per distinct
// content key, then shared read-only), simulate, and verify the
// functional self-check. It is the engine's worker body, and also
// serves cmd/bowsim's single-shot path. The context cancels the
// simulation loop cooperatively. Kernel parse errors surface as job
// errors here, not panics — the engine's panic isolation is a
// backstop, not the error path.
//
// When spec.FromCheckpoint is set, the device is restored from that
// snapshot instead of starting cold: the benchmark's Init is skipped
// (the snapshot carries memory) and the run continues from the
// checkpoint cycle. Resuming the same spec is bit-identical to a cold
// run.
//
// When a DrainController travels in ctx (WithDrain) and drains
// mid-run, Execute snapshots the paused device and returns an Outcome
// with Interrupted set and the checkpoint attached — not an error —
// so the caller can hand the job to another worker.
//
// When an engine's carcass pool travels in ctx, the device is built
// from a pooled carcass of the same GPU geometry and retired back into
// the pool afterwards; without one (cmd/bowsim and other inline
// callers) every call builds a fresh device.
func Execute(ctx context.Context, spec JobSpec) (*Outcome, error) {
	return ExecuteTraced(ctx, spec, nil)
}

// ExecuteTraced is Execute with a cycle-level event tracer attached to
// the device (nil degrades to Execute). Tracing is deliberately not a
// JobSpec field: it must not change the spec's content hash or the
// simulation result — only observe it.
func ExecuteTraced(ctx context.Context, spec JobSpec, tr *trace.CycleTracer) (*Outcome, error) {
	return ExecuteUntil(ctx, spec, tr, 0)
}

// ExecuteUntil is ExecuteTraced with a pause point: the simulation
// stops once the device cycle counter reaches until (0 = run to
// completion) and returns an Interrupted outcome carrying the
// checkpoint, exactly as a drain would. cmd/bowsim -checkpoint-at and
// cmd/bowtrace -until are built on it.
func ExecuteUntil(ctx context.Context, spec JobSpec, tr *trace.CycleTracer, until int64) (*Outcome, error) {
	spec, err := spec.Normalize()
	if err != nil {
		return nil, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return nil, err
	}
	bcfg, err := spec.coreConfig()
	if err != nil {
		return nil, err
	}

	// Shared-artifact acquisition: the parsed + reordered + annotated
	// program and the benchmark's initial memory image are built once
	// per content key and shared read-only across workers. A resumed
	// job starts from empty memory (the snapshot carries it), so only
	// cold runs draw an image.
	prepStart := time.Now()
	key := artifact.KeyForConfig(spec.Bench, bcfg, spec.Reorder)
	pk, err := artifact.Default.Kernel(key)
	if err != nil {
		return nil, err
	}
	b := pk.Benchmark()
	hints := pk.Hints
	resuming := len(spec.FromCheckpoint) > 0
	var m *mem.Memory
	if resuming {
		m = mem.NewMemory()
	} else {
		img, err := artifact.Default.Image(spec.Bench)
		if err != nil {
			return nil, err
		}
		m = img.NewMemory()
	}
	pool := carcassPoolFrom(ctx)
	d, err := pool.build(spec.gpuConfig(), bcfg, pk.NewSMKernel(), m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	// The device goes back to the pool on every exit but a panic, and
	// only after the drain controller lets go of it (the deferred
	// unregister below runs first).
	var runErr error
	defer func() {
		if r := recover(); r != nil {
			panic(r) // a panicking job's device is dropped, never pooled
		}
		pool.put(d, runErr)
	}()
	recordPrepSpan(ctx, hash, prepStart)
	d.CaptureTrace = spec.Trace
	d.Tracer = tr

	var resumedFrom int64
	if resuming {
		h, err := d.RestoreBytes(spec.FromCheckpoint)
		if err != nil {
			return nil, fmt.Errorf("%s: restore checkpoint: %w", b.Name, err)
		}
		resumedFrom = h.Cycle
	}

	if dc := drainFrom(ctx); dc != nil {
		dc.register(d)
		defer dc.unregister(d)
	}

	start := time.Now()
	res, done, err := d.RunUntil(ctx, spec.MaxCycles, until)
	runErr = err
	if errors.Is(err, gpu.ErrInterrupted) {
		res, done, err = nil, false, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	wall := time.Since(start)

	if !done {
		// Paused (drain interrupt or explicit until): snapshot the device
		// so the job can continue elsewhere. The embedded spec (checkpoint
		// stripped) makes the stream self-describing for bowtrace -resume.
		ckpt, cycle, err := checkpointDevice(d, spec)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		return &Outcome{
			Spec:            spec,
			Hash:            hash,
			Interrupted:     true,
			Checkpoint:      ckpt,
			CheckpointCycle: cycle,
			ResumedFrom:     resumedFrom,
			Hints:           hints,
			Attempts:        1,
		}, nil
	}

	checked := false
	if b.Check != nil {
		if err := b.Check(m); err != nil {
			return nil, fmt.Errorf("%s (%s): functional check failed: %w", b.Name, spec.Policy, err)
		}
		checked = true
	}

	return &Outcome{
		Spec:        spec,
		Hash:        hash,
		Summary:     summarize(spec, hash, res, checked, wall.Nanoseconds()),
		Full:        res,
		Hints:       hints,
		Attempts:    1,
		ResumedFrom: resumedFrom,
	}, nil
}

// spanLogKey carries the engine's span log into the execution path so
// ExecuteUntil can record fine-grained stages (StagePrep) without the
// engine inspecting the job body.
type spanLogKey struct{}

func withSpanLog(ctx context.Context, l *trace.SpanLog) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, spanLogKey{}, l)
}

func spanLogFrom(ctx context.Context) *trace.SpanLog {
	l, _ := ctx.Value(spanLogKey{}).(*trace.SpanLog)
	return l
}

// recordPrepSpan records the shared-artifact acquisition stage when a
// span log travels in ctx (engine-submitted jobs; inline Execute calls
// carry none and skip it).
func recordPrepSpan(ctx context.Context, hash string, start time.Time) {
	l := spanLogFrom(ctx)
	if l == nil {
		return
	}
	l.Record(trace.Span{
		TraceID:     trace.IDFromContext(ctx),
		Hop:         trace.HopEngine,
		Stage:       trace.StagePrep,
		Job:         hash,
		StartMicros: start.UnixMicro(),
		DurMicros:   time.Since(start).Microseconds(),
	})
}

// checkpointDevice snapshots a paused device with the job's normalized
// spec (checkpoint bytes stripped) embedded in the header.
func checkpointDevice(d *gpu.Device, spec JobSpec) ([]byte, int64, error) {
	spec.FromCheckpoint = nil
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	blob, _, err := d.SnapshotBytes(specJSON)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	return blob, d.Cycles(), nil
}
