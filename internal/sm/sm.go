// Package sm implements the streaming-multiprocessor timing pipeline:
// warp scheduling and issue, operand collection (baseline OCUs or BOW's
// bypassing operand collectors), functional execution, the memory
// pipeline, and write-back — a cycle-driven model of the architecture in
// the paper's Figs. 2 and 5.
//
// The pipeline is simultaneously functional and timed: operand values
// flow through the same structures the timing model charges for, so a
// bookkeeping bug in the bypass logic shows up as a wrong architectural
// result, not just a wrong cycle count.
package sm

import (
	"fmt"

	"bow/internal/asm"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/exec"
	"bow/internal/isa"
	"bow/internal/mem"
	"bow/internal/regfile"
	"bow/internal/scheduler"
	"bow/internal/scoreboard"
	"bow/internal/stats"
	"bow/internal/trace"
)

// Kernel is a launched grid.
type Kernel struct {
	Program   *asm.Program
	GridDim   int // CTAs in the grid
	BlockDim  int // threads per CTA (multiple of 32 recommended)
	SharedLen int // shared memory bytes per CTA
	// Params are the kernel parameters, readable with ld.param at byte
	// offsets 0,4,8...
	Params []uint32
	// Reconv maps branch PCs to reconvergence PCs (filled by Prepare).
	Reconv map[int]int
}

// WarpsPerCTA returns the warp count of one CTA.
func (k *Kernel) WarpsPerCTA() int {
	return (k.BlockDim + isa.WarpSize - 1) / isa.WarpSize
}

// Prepare computes the reconvergence table. It must be called once
// before launching.
func (k *Kernel) Prepare() error {
	cfg, err := buildCFG(k.Program)
	if err != nil {
		return err
	}
	k.Reconv = cfg.ReconvergencePCs()
	// The program is still single-owner here (each job parses its own
	// copy); cache the scoreboard's hazard masks before the pipeline
	// starts hammering CanIssue.
	for i := range k.Program.Code {
		k.Program.Code[i].FinalizeHazards()
	}
	return nil
}

// ctaWork is one thread block assigned to the SM.
//
//bow:state
type ctaWork struct {
	ctaID    int // global CTA index within the grid
	shared   *mem.SharedMemory
	warps    []int // SM warp slots used
	arrived  int   // barrier arrivals
	liveWarp int   // warps not yet exited
}

// SM is one streaming multiprocessor.
//
//bow:state
type SM struct {
	id   int         //bow:resetskip -- SM identity, fixed at construction; a recycled SM keeps its slot in the device
	gcfg config.GPU  //bow:snapskip -- chip configuration, fixed at construction; the Device header hashes it for restore validation
	bcfg core.Config //bow:snapskip -- BOW window configuration (policy baseline disables); restore validates window state structurally instead

	kernel *Kernel
	global *mem.Memory //bow:snapskip -- functional global memory is owned and serialized by the Device (one store, many SMs)
	hier   *mem.Hierarchy

	rf     *regfile.File
	sb     *scoreboard.Board
	pipes  *exec.Pipes //bow:snapskip -- per-cycle issue-slot counters; empty at every cycle boundary, where snapshots are taken
	scheds []*scheduler.Scheduler

	warps   []*warpCtx
	engines []*core.Engine // one BOC window engine per warp slot
	ctas    map[int]*ctaWork

	// issueState is the per-slot issue verdict the fast issue scan
	// reads (issueIneligible, issueCandidate, issueBlocked; issue.go).
	issueState []uint8 //bow:derived -- cache over restored warp state; rederive recomputes it, and a dropped blocked verdict only costs one scoreboard query

	// candMask and blockMask index issueState by slot: bit w is set
	// when slot w is a candidate (blocked). setIssue writes the byte
	// and both masks together; the issue scan reads only the masks
	// until it reaches a candidate.
	candMask  uint64 //bow:derived -- index over issueState; rederive recomputes it with the bytes
	blockMask uint64 //bow:derived -- index over issueState; rederive recomputes it with the bytes
	// partMask[i] holds the slots scheduler i owns.
	partMask []uint64 //bow:snapskip -- scheduler partition, fixed at construction

	// portq is the collector-port worklist: every collector with a
	// port step due — a buffered delivery, or all operands forwarded at
	// issue and not yet ready. pushDelivery and issueInstruction add to
	// it; the collector stage walks only it and drops a collector once
	// its delivery ring is empty.
	portq []*inflight //bow:derived -- rederive rebuilds it from the restored collectors

	// plan is the window engine's operand plan for the instruction
	// being issued, reused across issues.
	plan core.Plan //bow:snapskip -- per-issue scratch; dead between issues, so there is nothing to save or reset

	cycle int64

	// wheel is the timing-wheel event calendar (typed completion
	// records, free-listed — no map hashing or closure allocation in
	// the cycle loop). It also owns the event free list in reference
	// mode.
	wheel *eventWheel

	// ref selects the reference cycle loop (config.GPU.ReferenceLoop):
	// the seed's map calendar and scan-everything dispatch, kept
	// in-tree as the oracle for the differential suite.
	ref        bool               //bow:resetskip -- loop-flavor selector, fixed at construction; Reset recycles within one flavor
	refEvents  map[int64][]*event //bow:snapskip -- reference-loop calendar; reference SMs refuse snapshots (State fails)
	refScratch []*inflight        //bow:snapskip -- reference dispatch scratch; reference SMs refuse snapshots

	// active lists resident, not-yet-done warps so the cycle loop
	// skips empty warp slots entirely.
	active []*warpCtx //bow:derived -- rebuilt in slot order by rederive from restored warp residency

	// readyHead/readyTail is the dispatch-ordered ready list: operand-
	// complete instructions linked intrusively in (issueCycle, slot,
	// seq) order, replacing the per-cycle scan + sort.
	readyHead *inflight
	readyTail *inflight //bow:derived -- tail of the ready list; a load rebuilds it from the serialized head-to-tail walk

	// freeInflights recycles completed instruction records.
	freeInflights []*inflight //bow:snapskip -- free pool; rebuilt empty on restore and deliberately kept warm across Reset

	// segScratch is the reusable coalescing buffer (executeMem).
	segScratch []uint32 //bow:snapskip -- per-instruction coalescing scratch; dead between cycles

	// Pending CTA-issue bookkeeping.
	freeWarpSlots int
	freeTBSlots   int

	st RunStats

	// busyCollectors counts operand collectors in use across the SM; the
	// pool (gcfg.NumOCUs) gates issue.
	busyCollectors int //bow:derived -- recounted by rederive from restored collector lists

	// RegSnapshots, when enabled, captures each warp's effective
	// register values at exit, keyed by (ctaID, warpInCTA).
	CaptureRegs  bool //bow:snapskip -- capture switch, set by the harness; not simulation state
	RegSnapshots map[[2]int][]core.Value

	// CaptureTrace, when enabled, records each warp's issue-ordered
	// dynamic instruction stream (internal/trace consumes these).
	CaptureTrace bool //bow:snapskip -- capture switch, set by the harness; not simulation state
	Traces       map[[2]int][]*isa.Instruction

	// Tracer, when non-nil, receives cycle-level events (warp issues,
	// BOC hits/misses/evictions, consolidations, bank conflicts, wheel
	// pops). Every emission site guards on nil, so a disabled tracer
	// costs one branch per site and zero allocations.
	Tracer *trace.CycleTracer //bow:snapskip -- observability wiring; does not affect the simulation

	// lastBankConflicts remembers the RF conflict counter between
	// cycles so the tracer can emit per-cycle conflict deltas.
	lastBankConflicts int64 //bow:derived -- tracer delta baseline; rederive reseeds it from the restored RF counter

	// canIssue is the eligibility predicate the reference issue scan
	// hands to scheduler.Order (GTO's greedy-warp test), built once at
	// construction so issueRef does not allocate a capturing closure
	// per scheduler per cycle. The fast loop ranks without it.
	canIssue func(wid int) bool //bow:snapskip -- closure wiring, built once at construction
}

// New creates an SM.
func New(id int, gcfg config.GPU, bcfg core.Config, kernel *Kernel,
	global *mem.Memory, l2 *mem.Cache) (*SM, error) {
	bcfg, err := bcfg.Normalize()
	if err != nil {
		return nil, err
	}
	if kernel.Reconv == nil {
		return nil, fmt.Errorf("sm: kernel not Prepared")
	}
	if gcfg.MaxWarpsPerSM > 64 {
		return nil, fmt.Errorf("sm: %d warp slots exceed the 64 the issue masks index", gcfg.MaxWarpsPerSM)
	}
	rf, err := regfile.New(regfile.Config{
		NumBanks:      gcfg.NumRFBanks,
		WarpRegsPerB:  gcfg.RegFileKBPerSM * 1024 / (gcfg.NumRFBanks * 128),
		MaxWarps:      gcfg.MaxWarpsPerSM,
		AccessLatency: gcfg.RFAccessLat,
	})
	if err != nil {
		return nil, err
	}
	l1, err := mem.NewCache(fmt.Sprintf("L1[%d]", id), gcfg.L1SizeKB*1024, gcfg.L1LineBytes, gcfg.L1Assoc)
	if err != nil {
		return nil, err
	}
	skind, err := scheduler.ParseKind(gcfg.Scheduler)
	if err != nil {
		return nil, err
	}

	s := &SM{
		id:     id,
		gcfg:   gcfg,
		bcfg:   bcfg,
		kernel: kernel,
		global: global,
		hier: &mem.Hierarchy{
			L1: l1, L2: l2,
			L1HitCycles: gcfg.L1HitCycles,
			L2HitCycles: gcfg.L2HitCycles,
			DRAMCycles:  gcfg.DRAMCycles,
		},
		rf: rf,
		sb: scoreboard.New(gcfg.MaxWarpsPerSM),
		pipes: exec.NewPipes(exec.PipeConfig{
			ALULatency: gcfg.ALULatency, FPULatency: gcfg.FPULatency,
			SFULatency: gcfg.SFULatency,
			NumALU:     gcfg.NumALU, NumFPU: gcfg.NumFPU, NumSFU: gcfg.NumSFU,
			NumLSU: gcfg.MaxL1PerCyc, NumCtrl: gcfg.NumSched,
		}),
		warps:         make([]*warpCtx, gcfg.MaxWarpsPerSM),
		engines:       make([]*core.Engine, gcfg.MaxWarpsPerSM),
		issueState:    make([]uint8, gcfg.MaxWarpsPerSM),
		portq:         make([]*inflight, 0, gcfg.MaxWarpsPerSM*collectorsPerWarp),
		ctas:          make(map[int]*ctaWork),
		freeWarpSlots: gcfg.MaxWarpsPerSM,
		freeTBSlots:   gcfg.MaxTBsPerSM,
		RegSnapshots:  make(map[[2]int][]core.Value),
		Traces:        make(map[[2]int][]*isa.Instruction),
	}
	s.wheel = newEventWheel(wheelSpan(gcfg.ALULatency, gcfg.FPULatency,
		gcfg.SFULatency, gcfg.L1HitCycles, gcfg.L2HitCycles,
		gcfg.DRAMCycles, gcfg.RFAccessLat))
	s.ref = gcfg.ReferenceLoop
	if s.ref {
		s.refEvents = make(map[int64][]*event)
		s.canIssue = func(wid int) bool { return s.canIssueWarp(s.warps[wid]) }
	}
	s.st.OccupancyBOC = stats.NewHistogram()
	s.st.OccupancyOCU = stats.NewHistogram()
	s.st.SrcOperands = stats.NewHistogram()

	// One slab each for the per-warp collector and fill-waiter lists:
	// their capacities are architectural constants, and slab slicing
	// keeps SM construction (on the job engine's critical path) cheap.
	collectorSlab := make([]*inflight, gcfg.MaxWarpsPerSM*collectorsPerWarp)
	waiterSlab := make([]fillWaiter, gcfg.MaxWarpsPerSM*collectorsPerWarp*isa.MaxSrcOperands)
	for w := 0; w < gcfg.MaxWarpsPerSM; w++ {
		s.warps[w] = &warpCtx{
			sm: s, slot: w, ctaID: -1, activeIdx: -1,
			collectors:  collectorSlab[w*collectorsPerWarp : w*collectorsPerWarp : (w+1)*collectorsPerWarp],
			fillWaiters: waiterSlab[w*collectorsPerWarp*isa.MaxSrcOperands : w*collectorsPerWarp*isa.MaxSrcOperands : (w+1)*collectorsPerWarp*isa.MaxSrcOperands],
		}
	}
	if err := s.buildEngines(); err != nil {
		return nil, err
	}
	for sc := 0; sc < gcfg.NumSched; sc++ {
		ids := make([]int, 0, gcfg.MaxWarpsPerSM/gcfg.NumSched)
		var part uint64
		for w := sc; w < gcfg.MaxWarpsPerSM; w += gcfg.NumSched {
			ids = append(ids, w)
			part |= 1 << uint(w)
		}
		s.scheds = append(s.scheds, scheduler.New(skind, ids))
		s.partMask = append(s.partMask, part)
	}
	return s, nil
}

// buildEngines constructs one window engine per warp slot from the
// SM's bcfg. Engines are the only per-warp component whose shape
// depends on the window policy; Reset rebinds them in place
// (core.Engine.Reset) rather than rebuilding them.
func (s *SM) buildEngines() error {
	for w := range s.engines {
		wslot := w
		eng, err := core.NewEngine(s.bcfg, func(reg uint8, val *core.Value, cause core.WriteCause) {
			if s.Tracer != nil &&
				(cause == core.CauseWindowEvict || cause == core.CauseCapacityEvict ||
					cause == core.CauseIntervalDrain) {
				s.Tracer.Emit(s.cycle, s.id, wslot, trace.EvBOCEvict, int32(reg))
			}
			// Functional value propagates instantly so Peek-based merge
			// bases and oracle snapshots are always architecturally
			// current; the queued write models the bank-port timing.
			s.rf.Poke(wslot, reg, val)
			s.rf.EnqueueWrite(wslot, reg, val)
		})
		if err != nil {
			return err
		}
		s.engines[wslot] = eng
	}
	return nil
}

// Reset rebinds a retired SM to a new launch, reusing every
// configuration-shaped structure in place: the register file and cache
// models, the scoreboard, pipes, schedulers, the timing-wheel calendar
// (including its warmed event free list), the warp contexts with their
// collector/waiter slabs, the in-flight record pool, and the stats
// histograms. The window engines — the one per-warp component shaped
// by the window policy — are reset in place too, their entry slabs
// growing only when the new window needs more. A reset SM behaves
// bit-identically to one built by New; the gpu recycling suite holds
// the recycled path to that standard. The previous run may have
// ended early (cycle-limit error): in-flight instructions are dropped
// and every pending event is drained, so even a dirty SM resets clean.
func (s *SM) Reset(bcfg core.Config, kernel *Kernel, global *mem.Memory) error {
	bcfg, err := bcfg.Normalize()
	if err != nil {
		return err
	}
	if kernel.Reconv == nil {
		return fmt.Errorf("sm: kernel not Prepared")
	}
	s.bcfg = bcfg
	s.kernel = kernel
	s.global = global

	s.rf.Reset()
	s.hier.L1.Reset()
	s.sb.Reset()
	s.pipes.Reset()
	for _, sc := range s.scheds {
		sc.Reset()
	}
	s.wheel.reset()
	if s.ref {
		clear(s.refEvents)
		s.refScratch = s.refScratch[:0]
	}

	for _, w := range s.warps {
		w.ctaID = -1
		w.warpInCTA = 0
		w.activeIdx = -1
		w.occVal, w.occSince = 0, 0
		w.done, w.stalled, w.atBarrier = false, false, false
		w.issued = 0
		w.preds = [isa.NumPredRegs]uint32{}
		w.stack = w.stack[:0]
		// Clear the full slab sections, not just [:len]: an errored run
		// leaves in-flight records behind, and stale slab pointers would
		// keep them (and everything they reference) alive.
		cs := w.collectors[:cap(w.collectors)]
		for i := range cs {
			cs[i] = nil
		}
		w.collectors = cs[:0]
		fw := w.fillWaiters[:cap(w.fillWaiters)]
		for i := range fw {
			fw[i] = fillWaiter{}
		}
		w.fillWaiters = fw[:0]
	}
	for _, eng := range s.engines {
		if err := eng.Reset(bcfg); err != nil {
			return err
		}
	}

	for i := range s.active {
		s.active[i] = nil
	}
	s.active = s.active[:0]
	clear(s.issueState) // every slot is free again: ineligible
	s.candMask, s.blockMask = 0, 0
	clear(s.portq)
	s.portq = s.portq[:0]
	s.readyHead, s.readyTail = nil, nil
	clear(s.ctas)
	s.cycle = 0
	s.busyCollectors = 0
	s.lastBankConflicts = 0
	s.freeWarpSlots = s.gcfg.MaxWarpsPerSM
	s.freeTBSlots = s.gcfg.MaxTBsPerSM
	clear(s.RegSnapshots)
	clear(s.Traces)

	hBOC, hOCU, hSrc := s.st.OccupancyBOC, s.st.OccupancyOCU, s.st.SrcOperands
	hBOC.Reset()
	hOCU.Reset()
	hSrc.Reset()
	s.st = RunStats{OccupancyBOC: hBOC, OccupancyOCU: hOCU, SrcOperands: hSrc}
	return nil
}

// Release drops the SM's references to its launch — the kernel, the
// functional global memory, the tracer, resident CTAs and the captured
// register snapshots and instruction traces — so a retired SM pins
// only configuration-shaped storage until Reset binds the next launch.
// The SM must not be stepped in between.
func (s *SM) Release() {
	s.kernel, s.global, s.Tracer = nil, nil, nil
	clear(s.ctas)
	clear(s.RegSnapshots)
	clear(s.Traces)
}

// CanAcceptCTA reports whether a new thread block fits.
func (s *SM) CanAcceptCTA() bool {
	return s.freeTBSlots > 0 && s.freeWarpSlots >= s.kernel.WarpsPerCTA()
}

// AssignCTA places CTA ctaID on this SM.
func (s *SM) AssignCTA(ctaID int) error {
	if !s.CanAcceptCTA() {
		return fmt.Errorf("sm %d: no room for CTA %d", s.id, ctaID)
	}
	nw := s.kernel.WarpsPerCTA()
	work := &ctaWork{
		ctaID:    ctaID,
		shared:   mem.NewShared(maxInt(s.kernel.SharedLen, 4)),
		liveWarp: nw,
	}
	assigned := 0
	for w := 0; w < len(s.warps) && assigned < nw; w++ {
		if s.warps[w].ctaID == -1 {
			s.initWarp(s.warps[w], ctaID, assigned)
			work.warps = append(work.warps, w)
			assigned++
		}
	}
	s.freeWarpSlots -= nw
	s.freeTBSlots--
	s.ctas[ctaID] = work
	return nil
}

// BusyCTAs returns how many thread blocks are resident.
func (s *SM) BusyCTAs() int { return len(s.ctas) }

// Idle reports whether the SM has no resident work.
func (s *SM) Idle() bool { return len(s.ctas) == 0 }

// Cycle advances the SM one clock.
//
//bow:hotpath
func (s *SM) Cycle() {
	s.cycle++
	s.st.Cycles++
	s.pipes.NewCycle(s.cycle)

	// 1. Register file banks serve one request each; completed reads
	// queue operand deliveries into the collectors.
	s.rf.Cycle()
	if s.Tracer != nil {
		if c := s.rf.Stats().BankConflicts; c > s.lastBankConflicts {
			s.Tracer.Emit(s.cycle, s.id, -1, trace.EvBankConflict,
				int32(c-s.lastBankConflicts))
			s.lastBankConflicts = c
		}
	}

	// 2. Scheduled events: writebacks, memory completions, branch
	// resolution.
	s.runEvents()

	if s.ref {
		s.cycleRefTail()
		return
	}

	// 3. Collectors consume one delivered operand each (single-ported
	// OCU/BOC); an instruction whose last operand lands becomes ready
	// and enters the dispatch-ordered list. Only collectors on the port
	// worklist have a step due, so the walk skips the rest; walk order
	// is immaterial (readyInsert orders by (issueCycle, slot, seq), and
	// the scoreboard and issue-state updates are per warp). A collector
	// stays listed while deliveries remain buffered.
	q := s.portq
	n := 0
	for _, f := range q {
		f.consumeDelivery()
		if !f.ready && f.collected() {
			s.markReady(f.warp, f)
		}
		if f.delivLen > 0 {
			q[n] = f
			n++
		}
	}
	clear(q[n:])
	s.portq = q[:n]

	// 4. Dispatch ready instructions to functional units.
	s.dispatch()

	// 5. Issue new instructions.
	s.issue()

	// 6. Occupancy (Fig. 9) is sampled run-length: a warp's occupancy
	// moves only inside Advance, Writeback and FillFromRF, whose
	// callers close the open run (noteOccupancy), as do warp exit
	// (activeRemove) and every read of the histogram (FlushOccupancy).
}

// cycleRefTail is steps 3-6 of the reference loop: full warp scans and
// the sort-based dispatch, as in the seed implementation.
func (s *SM) cycleRefTail() {
	for _, w := range s.warps {
		for _, f := range w.collectors {
			f.consumeDelivery()
		}
	}
	s.dispatchRef()
	s.issueRef()
	for _, w := range s.warps {
		if w.ctaID >= 0 && !w.done {
			if s.bcfg.Policy.Bypassing() {
				s.st.OccupancyBOC.Observe(s.engines[w.slot].Occupancy())
			}
		}
	}
}

// markReady transitions an instruction to the ready (operands
// complete) state: reads release their scoreboard reservations and the
// instruction enters the dispatch order. The reference loop performs
// the same transition inside its dispatch scan; both run after the
// collector-port stage and before dispatch, so the cycle accounting is
// identical.
func (s *SM) markReady(w *warpCtx, f *inflight) {
	f.ready = true
	f.collectCycle = s.cycle
	s.sb.ReleaseReads(w.slot, f.in)
	s.unblockIssue(w.slot)
	s.readyInsert(f)
}

// Stats returns the accumulated run statistics, with every open
// occupancy run flushed up to the current cycle boundary.
func (s *SM) Stats() *RunStats {
	s.FlushOccupancy()
	return &s.st
}

// RegFileStats exposes the register file counters.
func (s *SM) RegFileStats() regfile.Stats { return s.rf.Stats() }

// EngineStats sums the per-warp window engine counters.
func (s *SM) EngineStats() core.Stats {
	var total core.Stats
	for _, e := range s.engines {
		st := e.Stats()
		total.Merge(&st)
	}
	return total
}

// L1 returns the L1 cache (stats access).
func (s *SM) L1() *mem.Cache { return s.hier.L1 }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
