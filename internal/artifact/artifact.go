// Package artifact is the shared-preparation layer of the simulation
// stack: everything a sweep point needs *before* cycle 0 — the parsed
// kernel, the compiler passes (reorder scheduling, BOW-WR write-back
// hints), the reconvergence table, the cached scoreboard hazard masks,
// and the benchmark's initial memory image — is built exactly once per
// distinct content key and shared read-only across engine workers.
//
// A BOW instruction-window sweep is N nearly-identical simulations;
// before this layer every point independently re-parsed the kernel
// source, re-ran the compiler, and re-populated the same input arrays.
// Now the sweep shares two immutable artifact kinds:
//
//   - Kernel: the fully prepared program, keyed by the spec fields
//     that can change its bytes (benchmark, whether the reorder pass
//     ran, whether the hint pass ran, and the window size those passes
//     saw). Instructions are immutable after preparation, so any
//     number of concurrent simulations may execute one Kernel.
//
//   - Image: the benchmark's initial global memory, sealed into an
//     immutable page set (mem.Image). Each job gets a copy-on-write
//     child — a map-share, not a page copy — so jobs never observe
//     each other's stores.
//
// Both kinds live in a Cache: a small LRU with single-flight
// construction (concurrent requests for the same key build once) and
// hit/miss counters exported through the engine's /metrics families.
package artifact

import (
	"fmt"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
	"bow/internal/sm"
	"bow/internal/workloads"
)

// PassForPolicy maps a window configuration onto the annotation pass
// its architecture consumes, plus the pass's integer parameter, as the
// configuration's internal/policy row declares them.
func PassForPolicy(bcfg core.Config) (hints string, param int) {
	a, ok := policy.Of(bcfg)
	if !ok {
		return HintsNone, 0
	}
	return a.Pass, a.PassParam(bcfg)
}

// KeyForConfig is the kernel key every acquisition path (per-job,
// resumed, inline experiments) prepares a benchmark
// under bcfg with: the annotation pass of bcfg's policy, and the
// reorder pass, which consumes the window size, contributing IW when
// the annotation pass took no parameter.
func KeyForConfig(bench string, bcfg core.Config, reorder bool) KernelKey {
	hints, param := PassForPolicy(bcfg)
	if reorder && param == 0 {
		param = bcfg.IW
	}
	return KeyFor(bench, reorder, hints, param)
}

// Hint-pass discriminators for KernelKey.Hints: which per-instruction
// annotation pass ran over the program. Each policy family consults a
// different set of instruction hint fields, so kernels are shared
// across exactly the policies whose pass (and its parameter) match.
const (
	// HintsNone: no annotation pass; the plain parsed program. Shared
	// by baseline, bow-wt, bow-wb, rfc, and every window size.
	HintsNone = policy.PassNone
	// HintsBOWWR: compiler.Annotate write-back hints (parameter = IW).
	HintsBOWWR = policy.PassBOWWR
	// HintsCARFC: compiler.AnnotateCARFC allocation + last-use hints
	// (window-free; no parameter).
	HintsCARFC = policy.PassCARFC
	// HintsLTRF: compiler.AnnotateLTRF prefetch intervals (parameter =
	// operand-buffer capacity).
	HintsLTRF = policy.PassLTRF
	// HintsSCRF: compiler.AnnotateSCRF narrowness hints (whole-program;
	// no parameter).
	HintsSCRF = policy.PassSCRF
)

// KernelKey identifies one prepared-kernel artifact: the benchmark
// plus exactly the knobs that alter the prepared program's contents.
// Policies that never consult instruction hints (baseline, bow-wt,
// bow-wb, rfc) share one kernel across every window size; annotated
// kernels (bow-wr, carfc, ltrf, scrf) and reordered kernels are
// distinct per pass — and per parameter where the pass takes one.
type KernelKey struct {
	Bench   string
	Reorder bool   // footnote-1 scheduling pass applied
	Hints   string // annotation pass applied (HintsNone..HintsSCRF)
	// IW is the integer parameter the compiler passes ran with: the
	// window size for Reorder and HintsBOWWR, the buffer capacity for
	// HintsLTRF; 0 when no applied pass consumes it.
	IW int
}

// KeyFor builds the canonical kernel key: when no applied compiler
// pass consumes the integer parameter, it is irrelevant to the program
// bytes and is normalized away so all such configurations share one
// artifact.
func KeyFor(bench string, reorder bool, hints string, iw int) KernelKey {
	if !reorder && !policy.Parametric(hints) {
		iw = 0
	}
	return KernelKey{Bench: bench, Reorder: reorder, Hints: hints, IW: iw}
}

func (k KernelKey) String() string {
	h := k.Hints
	if h == HintsNone {
		h = "none"
	}
	return fmt.Sprintf("%s/reorder=%v/hints=%s/iw=%d", k.Bench, k.Reorder, h, k.IW)
}

// Kernel is one immutable prepared-kernel artifact: the parsed program
// with all compiler passes applied, hazard masks finalized, and the
// reconvergence table computed. After construction nothing writes to
// it — NewSMKernel hands out per-launch sm.Kernel values that share
// the program and reconvergence map read-only.
type Kernel struct {
	Key KernelKey

	// Program is parsed, reordered (Key.Reorder), hint-annotated
	// (Key.Hints), and hazard-finalized. Immutable.
	Program *asm.Program
	// Reconv is the branch-PC -> reconvergence-PC table. Immutable.
	Reconv map[int]int

	// HintStats summarizes the BOW-WR hint classification (zero unless
	// Key.Hints is HintsBOWWR or HintsCARFC); Hints is the rendered
	// summary of whichever annotation pass ran, carried into job
	// outcomes.
	HintStats compiler.HintStats
	Hints     string

	// bench is the registered benchmark the kernel was built from;
	// launch geometry is copied from it per simulation.
	bench *workloads.Benchmark
}

// Benchmark returns the benchmark this kernel was prepared from.
func (k *Kernel) Benchmark() *workloads.Benchmark { return k.bench }

// NewSMKernel returns a fresh per-launch sm.Kernel sharing the
// prepared program and reconvergence table. The returned kernel is
// already prepared (Reconv set, hazards finalized), so gpu.New skips
// its Prepare step and never mutates the shared program.
func (k *Kernel) NewSMKernel() *sm.Kernel {
	return &sm.Kernel{
		Program:   k.Program,
		GridDim:   k.bench.GridDim,
		BlockDim:  k.bench.BlockDim,
		SharedLen: k.bench.SharedLen,
		Params:    k.bench.Params,
		Reconv:    k.Reconv,
	}
}

// BuildKernel constructs the artifact for key without touching any
// cache — the single-flight cache path and tests both use it. Parse
// and compiler errors are returned, never panicked: a bad kernel fails
// the jobs that reference it.
func BuildKernel(key KernelKey) (*Kernel, error) {
	b, err := workloads.ByName(key.Bench)
	if err != nil {
		return nil, err
	}
	return BuildKernelFor(b, key)
}

// BuildKernelFor is BuildKernel over an explicit benchmark value
// (which need not be registered — the error-path tests hand in
// literals with bad sources).
func BuildKernelFor(b *workloads.Benchmark, key KernelKey) (*Kernel, error) {
	prog, err := b.ParseProgram()
	if err != nil {
		return nil, err
	}
	if key.Reorder {
		if err := compiler.Reorder(prog, key.IW); err != nil {
			return nil, fmt.Errorf("%s: reorder: %w", b.Name, err)
		}
	}
	var hs compiler.HintStats
	hints := ""
	switch key.Hints {
	case HintsNone:
	case HintsBOWWR:
		// Annotation runs on the final schedule, so the hints stay
		// sound under Reorder.
		hs, err = compiler.Annotate(prog, key.IW)
		if err != nil {
			return nil, fmt.Errorf("%s: annotate: %w", b.Name, err)
		}
		hints = hs.String()
	case HintsCARFC:
		cs, cerr := compiler.AnnotateCARFC(prog)
		if cerr != nil {
			return nil, fmt.Errorf("%s: annotate carfc: %w", b.Name, cerr)
		}
		hs, hints = cs.Hints, cs.String()
	case HintsLTRF:
		ls, lerr := compiler.AnnotateLTRF(prog, key.IW)
		if lerr != nil {
			return nil, fmt.Errorf("%s: annotate ltrf: %w", b.Name, lerr)
		}
		hints = ls.String()
	case HintsSCRF:
		ss, serr := compiler.AnnotateSCRF(prog)
		if serr != nil {
			return nil, fmt.Errorf("%s: annotate scrf: %w", b.Name, serr)
		}
		hints = ss.String()
	default:
		return nil, fmt.Errorf("artifact: unknown hint pass %q", key.Hints)
	}
	// Prepare once, while the program is still single-owner: the
	// reconvergence table and the per-instruction hazard masks are the
	// last writes the program ever sees.
	sk := &sm.Kernel{
		Program: prog, GridDim: b.GridDim, BlockDim: b.BlockDim,
		SharedLen: b.SharedLen, Params: b.Params,
	}
	if err := sk.Prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", b.Name, err)
	}
	return &Kernel{
		Key: key, Program: prog, Reconv: sk.Reconv,
		HintStats: hs, Hints: hints, bench: b,
	}, nil
}

// Image is one benchmark's initial global memory, sealed immutable.
// NewMemory hands out copy-on-write children; any number of goroutines
// may call it concurrently.
type Image struct {
	Bench string
	img   *mem.Image
}

// NewMemory returns a fresh copy-on-write child of the image.
func (im *Image) NewMemory() *mem.Memory { return im.img.NewMemory() }

// Pages reports the sealed page count (observability).
func (im *Image) Pages() int { return im.img.Pages() }

// BuildImage runs the benchmark's Init once and seals the result.
func BuildImage(bench string) (*Image, error) {
	b, err := workloads.ByName(bench)
	if err != nil {
		return nil, err
	}
	return BuildImageFor(b)
}

// BuildImageFor is BuildImage over an explicit benchmark value.
func BuildImageFor(b *workloads.Benchmark) (*Image, error) {
	m := mem.NewMemory()
	if b.Init != nil {
		if err := b.Init(m); err != nil {
			return nil, fmt.Errorf("%s: init: %w", b.Name, err)
		}
	}
	return &Image{Bench: b.Name, img: m.Seal()}, nil
}
