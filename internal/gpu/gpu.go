// Package gpu ties the simulator together at chip level: a set of SMs
// sharing an L2 and global memory, a CTA dispatcher, and the Run loop
// that carries a kernel launch to completion and collects the combined
// statistics.
package gpu

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/energy"
	"bow/internal/isa"
	"bow/internal/mem"
	"bow/internal/regfile"
	"bow/internal/sm"
	"bow/internal/trace"
)

// ErrKernelFault wraps a panic recovered inside the run loop (a kernel
// bug such as an out-of-range parameter read). The device's state is
// undefined afterwards: it must not be recycled.
var ErrKernelFault = errors.New("gpu: kernel fault")

// ErrInterrupted is returned by the run loop when Interrupt was called.
// The device state is intact at a cycle boundary: the caller can
// Snapshot it and a restored device resumes exactly where it stopped.
var ErrInterrupted = errors.New("gpu: run interrupted")

// Device is one simulated GPU.
//
//bow:state
type Device struct {
	cfg    config.GPU
	bcfg   core.Config //bow:snapskip -- window config is deliberately outside ConfigHash; restore checks window state structurally (core.Engine.State)
	Global *mem.Memory
	l2     *mem.Cache
	sms    []*sm.SM
	kernel *sm.Kernel

	// nextCTA and cycles are run-loop state kept on the device (rather
	// than in the loop) so a snapshot captures dispatch progress and a
	// restored device resumes mid-grid.
	nextCTA   int
	cycles    int64
	interrupt atomic.Bool //bow:snapskip -- cross-goroutine stop flag; snapshots happen at quiescent cycle boundaries

	// CaptureRegs propagates to the SMs: snapshot effective register
	// state at warp exit for oracle comparison.
	CaptureRegs bool //bow:snapskip -- observability wiring; does not affect Result
	// CaptureTrace records each warp's dynamic instruction stream for
	// internal/trace analyses.
	CaptureTrace bool //bow:snapskip -- observability wiring; does not affect Result
	// Tracer, when non-nil, receives cycle-level events from every SM
	// (the SM loop is sequential, so the shared ring stays deterministic
	// and needs no locking). It does not affect the simulation: Result
	// is bit-identical with and without it.
	Tracer *trace.CycleTracer //bow:snapskip -- observability wiring; does not affect Result
}

// Salvage holds a retired device's recyclable hardware model: the L2
// and the SMs themselves. Everything in an SM is shaped purely by
// config.GPU — never by the kernel — and the one policy-shaped part,
// the per-warp window engines, resets in place; so any later launch on
// the same GPU geometry can be built from the carcass with sm.Reset,
// reallocating almost nothing. A fresh device of the default geometry
// allocates about 1.5 MB: the 1 MiB functional register store (32
// warps × 256 registers × 128 B), the L2's 288 KiB of tag and LRU
// arrays, and 32 window engines (~190 KB). Beyond saving that per
// launch, recycling keeps the cycle loop's hottest structures
// (register file banks, collector slabs, the event calendar's free
// lists) in the same warm memory from one launch to the next. A
// carcass pins nothing of its last launch — Salvage drops the kernel,
// the memory image, the tracer and the captured snapshots and traces —
// so a pool of them holds only config-shaped storage. A Salvage is
// single-use: NewSalvaged consumes it (an SM must never be live in two
// devices), and a geometry mismatch simply drops it and builds fresh.
type Salvage struct {
	gcfg config.GPU
	l2   *mem.Cache
	sms  []*sm.SM
}

// Fits reports whether NewSalvaged would recycle sv for a device built
// under gcfg: the carcass must come from the exact same config.GPU.
func (sv *Salvage) Fits(gcfg config.GPU) bool {
	return sv != nil && sv.l2 != nil && sv.gcfg == gcfg && len(sv.sms) == gcfg.NumSMs
}

// Salvage surrenders the device's recyclable components for a
// successor built with NewSalvaged, releasing each SM's references to
// the finished launch. The device must not be stepped afterwards — its
// SMs now belong to the returned carcass — and a second Salvage yields
// an empty carcass that recycles nothing.
func (d *Device) Salvage() *Salvage {
	for _, s := range d.sms {
		s.Release()
	}
	sv := &Salvage{gcfg: d.cfg, l2: d.l2, sms: d.sms}
	d.l2, d.sms = nil, nil
	return sv
}

// New builds a device for one kernel launch. The kernel is Prepared
// here unless it already carries a reconvergence table — the artifact
// layer prepares kernels once and shares them read-only across
// concurrent devices, so re-preparing here would race on the shared
// program.
func New(gcfg config.GPU, bcfg core.Config, kernel *sm.Kernel, global *mem.Memory) (*Device, error) {
	return NewSalvaged(gcfg, bcfg, kernel, global, nil)
}

// NewSalvaged is New, recycling the components of sv (a retired
// device's carcass) when it was built under the exact same config.GPU;
// a nil or mismatched sv builds everything fresh. Reused components
// are Reset, so the device behaves bit-identically to a New device —
// the recycled-device transition matrix holds every policy pair to
// that standard. sv is consumed either way: its components are claimed (or
// dropped) and it must not be passed to a second build.
func NewSalvaged(gcfg config.GPU, bcfg core.Config, kernel *sm.Kernel, global *mem.Memory, sv *Salvage) (*Device, error) {
	if err := gcfg.Validate(); err != nil {
		return nil, err
	}
	if kernel.Reconv == nil {
		if err := kernel.Prepare(); err != nil {
			return nil, err
		}
	}
	if global == nil {
		global = mem.NewMemory()
	}
	if sv.Fits(gcfg) {
		l2, sms := sv.l2, sv.sms
		sv.l2, sv.sms = nil, nil
		l2.Reset()
		for _, s := range sms {
			if err := s.Reset(bcfg, kernel, global); err != nil {
				return nil, err
			}
		}
		return &Device{cfg: gcfg, bcfg: bcfg, Global: global, l2: l2, sms: sms, kernel: kernel}, nil
	}
	if sv != nil {
		sv.l2, sv.sms = nil, nil
	}
	l2, err := mem.NewCache("L2", gcfg.L2SizeKB*1024, gcfg.L2LineBytes, gcfg.L2Assoc)
	if err != nil {
		return nil, err
	}
	d := &Device{cfg: gcfg, bcfg: bcfg, Global: global, l2: l2, kernel: kernel}
	for i := 0; i < gcfg.NumSMs; i++ {
		s, err := sm.New(i, gcfg, bcfg, kernel, global, l2)
		if err != nil {
			return nil, err
		}
		d.sms = append(d.sms, s)
	}
	return d, nil
}

// Result is the outcome of one kernel run.
type Result struct {
	Cycles int64
	Stats  sm.RunStats
	RF     regfile.Stats
	Engine core.Stats
	Energy energy.Counts

	// RegSnapshots maps (ctaID, warpInCTA) to the warp's effective
	// register values at exit (when CaptureRegs was set).
	RegSnapshots map[[2]int][]core.Value
	// Traces maps (ctaID, warpInCTA) to the warp's dynamic instruction
	// stream (when CaptureTrace was set).
	Traces map[[2]int][]*isa.Instruction
}

// Interrupt asks a running simulation to stop at the next cycle
// boundary; the run loop returns ErrInterrupted with the device state
// intact and snapshottable. Safe to call from another goroutine.
func (d *Device) Interrupt() { d.interrupt.Store(true) }

// Cycles returns the device cycle count (total across a restored run).
func (d *Device) Cycles() int64 { return d.cycles }

// Run executes the kernel to completion. maxCycles bounds runaway
// simulations (0 means a generous default). Functional faults inside the
// pipeline (out-of-range parameter reads, misaligned accesses — i.e.
// kernel bugs) surface as errors.
func (d *Device) Run(maxCycles int64) (*Result, error) {
	return d.RunContext(context.Background(), maxCycles)
}

// RunContext is Run with cooperative cancellation: the simulation loop
// polls ctx every 1024 cycles and aborts with ctx's error when it is
// done. This is what lets the job engine enforce per-job timeouts.
func (d *Device) RunContext(ctx context.Context, maxCycles int64) (res *Result, err error) {
	res, _, err = d.RunUntil(ctx, maxCycles, 0)
	return res, err
}

// RunUntil simulates until the kernel completes or the device cycle
// counter reaches until (0 = no pause point). done reports completion;
// when false the device is paused at a cycle boundary and can be
// snapshotted or resumed with another RunUntil/RunContext call. The
// result reflects the state so far (partial when paused). maxCycles is
// a total-cycle bound, so a resumed run enforces the same limit the
// cold run would.
func (d *Device) RunUntil(ctx context.Context, maxCycles, until int64) (res *Result, done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, done, err = nil, false, fmt.Errorf("%w: %v", ErrKernelFault, r)
		}
	}()
	return d.run(ctx, maxCycles, until)
}

// defaultMaxCycles bounds runaway simulations when the caller passes
// no explicit limit.
const defaultMaxCycles = 50_000_000

// stepState is the outcome of one Device.step call.
type stepState uint8

const (
	// stepRan: one cycle simulated, the kernel is still running.
	stepRan stepState = iota
	// stepPaused: the pause point (until) was reached before this
	// cycle; the device sits at a cycle boundary, snapshottable.
	stepPaused
	// stepDone: every CTA has been dispatched and retired.
	stepDone
)

// step advances the device by exactly one cycle: CTA dispatch, one
// clock on every busy SM, and the cycle/limit bookkeeping. run calls
// it once per simulated cycle.
//
//bow:hotpath
func (d *Device) step(maxCycles, until int64) (stepState, error) {
	if d.interrupt.Swap(false) {
		return stepPaused, ErrInterrupted
	}
	if until > 0 && d.cycles >= until {
		return stepPaused, nil
	}
	// Dispatch CTAs breadth-first across SMs.
	total := d.kernel.GridDim
	progressing := false
	for _, s := range d.sms {
		for d.nextCTA < total && s.CanAcceptCTA() {
			if err := s.AssignCTA(d.nextCTA); err != nil {
				return stepPaused, err
			}
			d.nextCTA++
		}
		if !s.Idle() {
			progressing = true
		}
	}
	if !progressing && d.nextCTA >= total {
		return stepDone, nil
	}
	for _, s := range d.sms {
		if !s.Idle() {
			s.Cycle()
		}
	}
	d.cycles++
	if d.cycles > maxCycles {
		return stepPaused, d.runawayErr(maxCycles)
	}
	return stepRan, nil
}

// runawayErr builds the cycle-limit error off the hot path.
func (d *Device) runawayErr(maxCycles int64) error {
	return fmt.Errorf("gpu: kernel exceeded %d cycles (livelock or runaway loop?)", maxCycles)
}

func (d *Device) run(ctx context.Context, maxCycles, until int64) (*Result, bool, error) {
	if maxCycles <= 0 {
		maxCycles = defaultMaxCycles
	}
	// Push the device-level observation switches down to the SMs.
	for _, s := range d.sms {
		s.CaptureRegs = d.CaptureRegs
		s.CaptureTrace = d.CaptureTrace
		s.Tracer = d.Tracer
	}
	for {
		st, err := d.step(maxCycles, until)
		if err != nil {
			return nil, false, err
		}
		switch st {
		case stepPaused:
			return d.collect(), false, nil
		case stepDone:
			return d.collect(), true, nil
		}
		if d.cycles&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, false, fmt.Errorf("gpu: run canceled after %d cycles: %w", d.cycles, cerr)
			}
		}
	}
}

// collect builds a Result from the current device state.
func (d *Device) collect() *Result {
	cycles := d.cycles
	res := &Result{
		Cycles:       cycles,
		RegSnapshots: make(map[[2]int][]core.Value),
		Traces:       make(map[[2]int][]*isa.Instruction),
	}
	for _, s := range d.sms {
		res.Stats.Merge(s.Stats())
		rf := s.RegFileStats()
		res.RF.Reads += rf.Reads
		res.RF.Writes += rf.Writes
		res.RF.BankConflicts += rf.BankConflicts
		es := s.EngineStats()
		res.Engine.Merge(&es)
		for k, v := range s.RegSnapshots {
			res.RegSnapshots[k] = v
		}
		for k, v := range s.Traces {
			res.Traces[k] = v
		}
	}
	res.Stats.Cycles = cycles
	res.Energy = energy.Counts{
		RFReads:   res.Engine.RFReads,
		RFWrites:  res.Engine.RFWrites,
		BOCReads:  res.Engine.BOCReads,
		BOCWrites: res.Engine.BOCWrites,

		CompressedRFReads:  res.Engine.CompressedReads,
		CompressedRFWrites: res.Engine.CompressedWrites,
	}
	return res
}
