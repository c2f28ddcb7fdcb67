package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"bow/internal/artifact"
	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/gpu"
	"bow/internal/mem"
	"bow/internal/simjob"
	"bow/internal/sm"
	"bow/internal/workloads"
)

// decomposer replays simjob's per-job execution one public call at a
// time on a single goroutine, with a span around each call:
// normalize/hash -> parse -> compiler pass -> prepare -> image ->
// gpu.New -> RunUntil (fast and reference loop) -> check -> canonical
// encode. Its results are checked against the golden digests, so the
// layers it times are the ones the workloads run.
//
// It covers default-window design points only (the crosspolicy grid and
// the forked sweep's warm-ups): the spec-to-config mapping it uses is
// simjob.DefaultPolicyConfig, verified per point by a round trip
// through simjob.SpecFromConfig.
type decomposer struct {
	log  *spanLog
	gold *golden
}

// pointRun is one decomposed execution.
type pointRun struct {
	spec          simjob.JobSpec
	hash          string
	res           *gpu.Result
	sum           simjob.JobResult
	fastNS, refNS int64 // mean RunUntil time per run on each loop
	buildAlloc    uint64
}

func gpuConfigFor(spec simjob.JobSpec, reference bool) config.GPU {
	g := config.SimDefault()
	g.NumSMs = spec.SMs
	g.Scheduler = spec.Scheduler
	g.ReferenceLoop = reference
	return g
}

// coreConfigFor maps a normalized default-window spec onto its window
// configuration and proves the mapping by the round trip.
func coreConfigFor(spec simjob.JobSpec, hash string) (core.Config, error) {
	bcfg, err := simjob.DefaultPolicyConfig(spec.Policy)
	if err != nil {
		return bcfg, err
	}
	back, ok := simjob.SpecFromConfig(spec.Bench, bcfg, spec.SMs, spec.Scheduler, spec.MaxCycles)
	if !ok {
		return bcfg, fmt.Errorf("%s/%s: default config has no spec form", spec.Bench, spec.Policy)
	}
	if h, err := back.Hash(); err != nil || h != hash {
		return bcfg, fmt.Errorf("%s/%s iw=%d cap=%d: not a default-window point", spec.Bench, spec.Policy, spec.IW, spec.Capacity)
	}
	return bcfg, nil
}

// compilePass runs the annotation pass a kernel key names, as
// artifact.BuildKernelFor does.
func compilePass(prog *asm.Program, key artifact.KernelKey) error {
	var err error
	switch key.Hints {
	case artifact.HintsNone:
	case artifact.HintsBOWWR:
		_, err = compiler.Annotate(prog, key.IW)
	case artifact.HintsCARFC:
		_, err = compiler.AnnotateCARFC(prog)
	case artifact.HintsLTRF:
		_, err = compiler.AnnotateLTRF(prog, key.IW)
	case artifact.HintsSCRF:
		_, err = compiler.AnnotateSCRF(prog)
	default:
		err = fmt.Errorf("unknown hint pass %q", key.Hints)
	}
	return err
}

// summarize builds the JobResult of a finished run, field for field as
// simjob does for its own runs; the golden digests prove the two agree.
func summarize(spec simjob.JobSpec, hash string, res *gpu.Result, checked bool) simjob.JobResult {
	rep := energy.Compute(res.Energy)
	return simjob.JobResult{
		SpecHash:  hash,
		Bench:     spec.Bench,
		Policy:    spec.Policy,
		IW:        spec.IW,
		Capacity:  spec.Capacity,
		SMs:       spec.SMs,
		Scheduler: spec.Scheduler,

		Cycles:   res.Cycles,
		Executed: res.Stats.Executed,
		IPC:      res.Stats.IPC(),

		RFReads:         res.Engine.RFReads,
		RFWrites:        res.Engine.RFWrites,
		BypassedReads:   res.Engine.BypassedRead,
		ReadBypassFrac:  res.Engine.ReadBypassFrac(),
		WriteBypassFrac: res.Engine.WriteBypassFrac(),
		BOCReads:        res.Engine.BOCReads,
		BOCWrites:       res.Engine.BOCWrites,
		BankConflicts:   res.RF.BankConflicts,
		MemTransactions: res.Stats.MemTransactions,

		RFEnergyPJ:       rep.RFDynamicPJ,
		OverheadEnergyPJ: rep.OverheadPJ(),

		Checked: checked,
	}
}

// launch builds a device for the prepared kernel and runs it to
// completion on the fast or the reference loop, timing the build and
// the loop as spans. The loop runs under the pprof label loop=<policy>
// (loop=<policy>/ref for the reference loop).
func (x *decomposer) launch(ctx context.Context, tid string, root int, spec simjob.JobSpec, reference bool,
	bcfg core.Config, sk *sm.Kernel, m *mem.Memory) (*gpu.Device, *gpu.Result, int64, uint64, error) {
	suffix, label := "", spec.Policy
	if reference {
		suffix, label = "_ref", spec.Policy+"/ref"
	}
	k := *sk // a per-launch kernel sharing the prepared program, as artifact.Kernel.NewSMKernel hands out
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s := x.log.begin(tid, "build"+suffix, root)
	d, err := gpu.New(gpuConfigFor(spec, reference), bcfg, &k, m)
	x.log.end(s)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	var res *gpu.Result
	var done bool
	s = x.log.begin(tid, "loop"+suffix, root)
	t0 := time.Now()
	pprof.Do(ctx, pprof.Labels("loop", label), func(ctx context.Context) {
		res, done, err = d.RunUntil(ctx, spec.MaxCycles, 0)
	})
	ns := time.Since(t0).Nanoseconds()
	x.log.end(s)
	if err == nil && !done {
		err = fmt.Errorf("run paused before completion")
	}
	return d, res, ns, m1.TotalAlloc - m0.TotalAlloc, err
}

// loopReps is how many times the decomposed executor runs each point
// on each loop: more profile samples per policy, and a loop time that
// one scheduling hiccup cannot dominate.
const loopReps = 3

// run executes one default-window point. The loop order alternates
// with order's parity (and again between repeats), so warm-cache bias
// between the fast and reference loops cancels across the grid.
func (x *decomposer) run(ctx context.Context, spec simjob.JobSpec, order int) (*pointRun, error) {
	tid := spec.Bench + "/" + spec.Policy
	root := x.log.begin(tid, "point", 0)
	defer x.log.end(root)

	s := x.log.begin(tid, "normalize_hash", root)
	norm, err := spec.Normalize()
	var hash string
	if err == nil {
		hash, err = norm.Hash()
	}
	x.log.end(s)
	if err != nil {
		return nil, err
	}
	if norm.Reorder {
		return nil, fmt.Errorf("%s: the decomposed executor does not run the reorder pass", tid)
	}
	bcfg, err := coreConfigFor(norm, hash)
	if err != nil {
		return nil, err
	}
	b, err := workloads.ByName(norm.Bench)
	if err != nil {
		return nil, err
	}
	hints, param := artifact.PassForPolicy(bcfg)
	key := artifact.KeyFor(norm.Bench, false, hints, param)

	s = x.log.begin(tid, "parse", root)
	prog, err := b.ParseProgram()
	x.log.end(s)
	if err != nil {
		return nil, err
	}
	s = x.log.begin(tid, "compile", root)
	err = compilePass(prog, key)
	x.log.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", tid, err)
	}
	s = x.log.begin(tid, "prepare", root)
	sk := &sm.Kernel{Program: prog, GridDim: b.GridDim, BlockDim: b.BlockDim, SharedLen: b.SharedLen, Params: b.Params}
	err = sk.Prepare()
	x.log.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", tid, err)
	}
	s = x.log.begin(tid, "image", root)
	img, err := artifact.BuildImage(norm.Bench)
	x.log.end(s)
	if err != nil {
		return nil, err
	}

	// Each loop runs loopReps times on fresh devices, the two loops
	// alternating which goes first. The first fast run is the point's
	// result; every other run must reproduce it.
	pr := &pointRun{spec: norm, hash: hash}
	var d *gpu.Device
	var m *mem.Memory
	var others []*gpu.Result
	for rep := 0; rep < loopReps; rep++ {
		for _, reference := range [2]bool{(order+rep)%2 == 1, (order+rep)%2 == 0} {
			mm := img.NewMemory()
			dd, res, ns, alloc, err := x.launch(ctx, tid, root, norm, reference, bcfg, sk, mm)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tid, err)
			}
			switch {
			case reference:
				pr.refNS += ns
				others = append(others, res)
			case pr.res == nil:
				d, m, pr.res, pr.buildAlloc = dd, mm, res, alloc
				pr.fastNS += ns
			default:
				pr.fastNS += ns
				others = append(others, res)
			}
		}
	}
	pr.fastNS /= loopReps
	pr.refNS /= loopReps

	s = x.log.begin(tid, "check", root)
	checked := b.Check != nil
	if checked {
		err = b.Check(m)
	}
	x.log.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: functional check failed: %w", tid, err)
	}

	s = x.log.begin(tid, "encode", root)
	pr.sum = summarize(norm, hash, pr.res, checked)
	_, err = pr.sum.CanonicalJSON()
	x.log.end(s)
	if err != nil {
		return nil, err
	}
	if err := x.gold.check(hash, pr.sum); err != nil {
		return nil, err
	}
	for _, res := range others {
		if err := x.gold.check(hash, summarize(norm, hash, res, checked)); err != nil {
			return nil, fmt.Errorf("%s: a repeated or reference-loop run diverged: %w", tid, err)
		}
	}

	// Rebuild the point from its own carcass, as a lockstep batch does
	// between slots, to time the recycled build path.
	sv := d.Salvage()
	k := *sk
	s = x.log.begin(tid, "salvaged_build", root)
	_, err = gpu.NewSalvaged(gpuConfigFor(norm, false), bcfg, &k, img.NewMemory(), sv)
	x.log.end(s)
	if err != nil {
		return nil, fmt.Errorf("%s: salvaged build: %w", tid, err)
	}
	return pr, nil
}

// fork replays one forked-sweep class the way RunSweepForked does: a
// baseline warm-up of warm cycles, a snapshot, and a bow-wt (IW 3)
// device restored from it and run to completion. It returns the
// snapshot's size, or 0 when the kernel finishes inside the warm-up
// (the sweep runs such classes cold).
func (x *decomposer) fork(ctx context.Context, bench string, warm int64) (int, error) {
	tid := bench + "/fork"
	root := x.log.begin(tid, "fork", 0)
	defer x.log.end(root)

	base, err := simjob.JobSpec{Bench: bench, Policy: simjob.PolicyBaseline}.Normalize()
	if err != nil {
		return 0, err
	}
	pk, err := artifact.BuildKernel(artifact.KeyFor(bench, false, artifact.HintsNone, 0))
	if err != nil {
		return 0, err
	}
	img, err := artifact.BuildImage(bench)
	if err != nil {
		return 0, err
	}
	bcfg, err := simjob.DefaultPolicyConfig(simjob.PolicyBaseline)
	if err != nil {
		return 0, err
	}
	gcfg := gpuConfigFor(base, false)
	d, err := gpu.New(gcfg, bcfg, pk.NewSMKernel(), img.NewMemory())
	if err != nil {
		return 0, err
	}
	s := x.log.begin(tid, "warmup_loop", root)
	_, done, err := d.RunUntil(ctx, base.MaxCycles, warm)
	x.log.end(s)
	if err != nil || done {
		return 0, err
	}
	specJSON, err := json.Marshal(base)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	s = x.log.begin(tid, "snapshot", root)
	_, err = d.Snapshot(&buf, specJSON)
	x.log.end(s)
	if err != nil {
		return 0, err
	}
	blob := buf.Bytes()

	spec, err := simjob.JobSpec{Bench: bench, Policy: simjob.PolicyBOWWT}.Normalize()
	if err != nil {
		return 0, err
	}
	hash, err := spec.Hash()
	if err != nil {
		return 0, err
	}
	tcfg, err := coreConfigFor(spec, hash)
	if err != nil {
		return 0, err
	}
	// A resumed device starts from empty memory; the snapshot carries it.
	rd, err := gpu.New(gcfg, tcfg, pk.NewSMKernel(), mem.NewMemory())
	if err != nil {
		return 0, err
	}
	s = x.log.begin(tid, "restore", root)
	h, err := rd.RestoreBytes(blob)
	x.log.end(s)
	if err != nil {
		return 0, err
	}
	s = x.log.begin(tid, "forked_loop", root)
	res, done, err := rd.RunUntil(ctx, spec.MaxCycles, 0)
	x.log.end(s)
	if err == nil && !done {
		err = fmt.Errorf("run paused before completion")
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", tid, err)
	}
	b := pk.Benchmark()
	checked := b.Check != nil
	if checked {
		if err := b.Check(rd.Global); err != nil {
			return 0, fmt.Errorf("%s: functional check failed: %w", tid, err)
		}
	}
	sum := summarize(spec, hash, res, checked)
	sum.ReusedCycles = h.Cycle
	if err := x.gold.check(forkedKey(hash, warm), sum); err != nil {
		return 0, err
	}
	return len(blob), nil
}
