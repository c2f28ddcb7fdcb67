package sm

import (
	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/core"
	"bow/internal/isa"
)

// buildCFG adapts the compiler package's CFG builder (kept behind a
// helper so the Kernel type doesn't leak compiler types).
func buildCFG(p *asm.Program) (*compiler.CFG, error) { return compiler.BuildCFG(p) }

// simtEntry is one frame of the SIMT reconvergence stack (PDOM scheme).
//
//bow:state
type simtEntry struct {
	pc   int
	rpc  int // reconvergence PC; -1 for the base frame
	mask uint32
}

// fillWaiter records that a later instruction's operand merges into an
// in-flight RF read of reg (request merging in the BOC). A warp has at
// most collectorsPerWarp in-flight instructions of at most
// isa.MaxSrcOperands operands, so the list stays tiny and its backing
// array is reused across the warp's lifetime.
//
//bow:state
type fillWaiter struct {
	reg uint8
	f   *inflight
}

// warpCtx is one hardware warp slot.
//
//bow:state
type warpCtx struct {
	sm        *SM //bow:snapskip -- back-pointer to the owning SM, wired at construction
	slot      int // SM-local warp ID
	ctaID     int // resident CTA (-1 = free)
	warpInCTA int
	stack     []simtEntry
	done      bool

	// stalled blocks further issue until an in-flight control
	// instruction (branch/exit/barrier) resolves.
	stalled bool
	// atBarrier marks the warp as having arrived at a bar.sync.
	atBarrier bool

	preds [isa.NumPredRegs]uint32 // per-lane predicate bits

	// collectors are the operand-collector units currently assigned to
	// this warp's in-flight instructions (Pascal dual-issue: up to two).
	collectors []*inflight

	// fillWaiters lists the (register, instruction) pairs waiting on an
	// in-flight RF read of that register.
	fillWaiters []fillWaiter

	// activeIdx is this warp's position in the SM's active list
	// (-1 when not resident or already done).
	activeIdx int //bow:derived -- position in the derived active list; rederive rebuilds both together

	// occVal and occSince are the warp's open Fig. 9 run: the window
	// has held occVal live entries at the end of every cycle from
	// occSince on, and the run is not yet in RunStats.OccupancyBOC.
	occVal   int   //bow:derived -- open occupancy run; rederive reseeds it from the restored engine
	occSince int64 //bow:derived -- start of the open occupancy run; rederive reseeds it at the restore cycle

	issued int64 // dynamic instructions issued (sequence numbering)
}

// fullMask returns the active-thread mask of a fresh warp (all lanes of
// BlockDim that fall into this warp).
func fullMask(blockDim, warpInCTA int) uint32 {
	base := warpInCTA * isa.WarpSize
	var m uint32
	for l := 0; l < isa.WarpSize; l++ {
		if base+l < blockDim {
			m |= 1 << uint(l)
		}
	}
	return m
}

// initWarp resets a warp slot for a new CTA.
func (s *SM) initWarp(w *warpCtx, ctaID, warpInCTA int) {
	w.ctaID = ctaID
	w.warpInCTA = warpInCTA
	w.done = false
	w.stalled = false
	w.atBarrier = false
	w.collectors = w.collectors[:0]
	w.fillWaiters = w.fillWaiters[:0]
	w.issued = 0
	w.preds = [isa.NumPredRegs]uint32{}
	w.preds[isa.PredTrue] = 0xFFFFFFFF
	w.stack = w.stack[:0]
	w.stack = append(w.stack, simtEntry{
		pc: 0, rpc: -1, mask: fullMask(s.kernel.BlockDim, warpInCTA),
	})
	s.activeAdd(w)
	s.refreshIssue(w)
}

// activeAdd registers w on the SM's active-warp list (resident, not
// done) and opens its occupancy run; the first sample is the next
// cycle's. List order is immaterial: every per-warp action in the
// cycle loop touches disjoint state.
func (s *SM) activeAdd(w *warpCtx) {
	if w.activeIdx >= 0 {
		return
	}
	w.activeIdx = len(s.active)
	s.active = append(s.active, w)
	w.occVal, w.occSince = s.engines[w.slot].Occupancy(), s.cycle+1
}

// activeRemove drops w from the active list (swap-remove), closing its
// occupancy run: a warp that leaves during cycle c is not sampled at c.
func (s *SM) activeRemove(w *warpCtx) {
	i := w.activeIdx
	if i < 0 {
		return
	}
	if s.occRuns() {
		s.addRun(w.occVal, s.cycle-w.occSince)
	}
	last := len(s.active) - 1
	s.active[i] = s.active[last]
	s.active[i].activeIdx = i
	s.active[last] = nil
	s.active = s.active[:last]
	w.activeIdx = -1
}

// occRuns reports whether the SM keeps Fig. 9 occupancy runs: the fast
// loop under a policy with a window. The reference loop samples every
// active warp each cycle instead, and must not count twice.
func (s *SM) occRuns() bool { return !s.ref && s.bcfg.Policy.Bypassing() }

// addRun records a closed run of n cycles at occupancy v.
func (s *SM) addRun(v int, n int64) {
	if n > 0 {
		s.st.OccupancyBOC.Add(v, n)
	}
}

// noteOccupancy follows an engine call that can move w's occupancy
// (Advance, Writeback, FillFromRF — carfc's last-use frees and ltrf's
// interval drains happen inside them). A move during cycle c closes
// the open run at c-1 and opens one at c, whose sample would see the
// new value. Only the fast loop under a windowed policy records runs,
// and only for active warps.
//
//bow:hotpath
func (s *SM) noteOccupancy(w *warpCtx) {
	v := s.engines[w.slot].Occupancy()
	if v == w.occVal {
		return
	}
	if s.occRuns() && w.activeIdx >= 0 {
		s.addRun(w.occVal, s.cycle-w.occSince)
	}
	w.occVal, w.occSince = v, s.cycle
}

// FlushOccupancy closes every open occupancy run at the current cycle
// boundary, so RunStats.OccupancyBOC holds exactly one sample per
// active warp-cycle so far, as the reference loop's per-cycle sampling
// does. Stats calls it; a snapshot's caller must call it before
// saving State, which serializes the histogram but not the open runs.
func (s *SM) FlushOccupancy() {
	if !s.occRuns() {
		return
	}
	next := s.cycle + 1
	for _, w := range s.active {
		s.addRun(w.occVal, next-w.occSince)
		w.occSince = next
	}
}

// top returns the active SIMT frame after popping exhausted frames
// (reconverged or fully-exited paths). Returns nil when the warp has no
// work left.
func (w *warpCtx) top() *simtEntry {
	for len(w.stack) > 0 {
		t := &w.stack[len(w.stack)-1]
		if t.mask == 0 {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		if t.rpc >= 0 && t.pc == t.rpc {
			w.stack = w.stack[:len(w.stack)-1]
			continue
		}
		return t
	}
	return nil
}

// peekTop returns the frame top would return, without popping the
// exhausted frames above it. Exhausted frames never revive (masks only
// shrink, and only the frame top returns has its pc moved), so popping
// them early or late is invisible to the simulation — but leaving the
// pops to top keeps the SIMT stack, and so every snapshot, exactly as
// the issue scan shapes it.
func (w *warpCtx) peekTop() *simtEntry {
	for i := len(w.stack) - 1; i >= 0; i-- {
		t := &w.stack[i]
		if t.mask != 0 && (t.rpc < 0 || t.pc != t.rpc) {
			return t
		}
	}
	return nil
}

// exitLanes terminates the given lanes across every stack frame.
func (w *warpCtx) exitLanes(mask uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= mask
	}
}

// predBits resolves a guard predicate to per-lane bits.
func (w *warpCtx) predBits(reg uint8, neg bool) uint32 {
	b := w.preds[reg]
	if neg {
		b = ^b
	}
	return b
}

// zeroValue is what RZ reads as. effectiveValue hands out pointers to
// it; nothing writes through them.
var zeroValue core.Value

// effectiveValue returns the architecturally current value of (warp,
// reg): the window copy when buffered, else the RF copy. The pointer
// aliases that storage and is valid until the next engine or register
// file write; callers copy what they keep.
func (s *SM) effectiveValue(w int, reg uint8) *core.Value {
	if reg == isa.RegZero {
		return &zeroValue
	}
	if v := s.engines[w].Lookup(reg); v != nil {
		return v
	}
	return s.rf.Peek(w, reg)
}

// specialValue materializes a special register for the warp into *out,
// writing every lane.
func (s *SM) specialValue(w *warpCtx, sp isa.Special, out *core.Value) {
	switch sp {
	case isa.SpecTidX:
		base := w.warpInCTA * isa.WarpSize
		for l := range out {
			out[l] = uint32(base + l)
		}
	case isa.SpecCtaidX:
		for l := range out {
			out[l] = uint32(w.ctaID)
		}
	case isa.SpecNtidX:
		for l := range out {
			out[l] = uint32(s.kernel.BlockDim)
		}
	case isa.SpecNctaidX:
		for l := range out {
			out[l] = uint32(s.kernel.GridDim)
		}
	case isa.SpecLaneID:
		for l := range out {
			out[l] = uint32(l)
		}
	case isa.SpecWarpID:
		for l := range out {
			out[l] = uint32(w.warpInCTA)
		}
	default:
		*out = core.Value{}
	}
}

// warpExited handles a warp finishing all lanes. In-flight instructions
// (e.g. a long-latency load issued before the exit) must drain first so
// the register snapshot is architecturally final.
func (s *SM) warpExited(w *warpCtx) {
	if w.done {
		return
	}
	if s.sb.Busy(w.slot) || len(w.collectors) > 0 {
		ev := s.wheel.alloc()
		ev.kind = evWarpExit
		ev.w = w
		s.schedule(1, ev)
		return
	}
	w.done = true
	s.activeRemove(w)
	s.refreshIssue(w)
	cta := s.ctas[w.ctaID]

	if s.CaptureRegs {
		n := s.kernel.Program.NumRegs()
		snap := make([]core.Value, n)
		for r := 0; r < n; r++ {
			snap[r] = *s.effectiveValue(w.slot, uint8(r))
		}
		s.RegSnapshots[[2]int{w.ctaID, w.warpInCTA}] = snap
	}
	// The register context dies with the warp: discard the window.
	s.engines[w.slot].Flush()

	cta.liveWarp--
	if cta.liveWarp == 0 {
		s.retireCTA(cta)
		return
	}
	// A warp exiting while siblings wait at a barrier can complete the
	// arrival count (CUDA forbids divergent barriers, but a defensive
	// release beats a silent hang).
	s.releaseBarrierIfComplete(cta)
}

// retireCTA frees the CTA's resources.
func (s *SM) retireCTA(cta *ctaWork) {
	for _, slot := range cta.warps {
		s.warps[slot].ctaID = -1
		s.refreshIssue(s.warps[slot])
	}
	s.freeWarpSlots += len(cta.warps)
	s.freeTBSlots++
	delete(s.ctas, cta.ctaID)
	s.st.CTAsRetired++
}

// barrierArrive handles a warp reaching bar.sync; when the whole CTA has
// arrived, everyone is released.
func (s *SM) barrierArrive(w *warpCtx) {
	cta := s.ctas[w.ctaID]
	w.atBarrier = true
	cta.arrived++
	s.releaseBarrierIfComplete(cta)
}

// releaseBarrierIfComplete opens the CTA's barrier when every live warp
// has arrived.
func (s *SM) releaseBarrierIfComplete(cta *ctaWork) {
	if cta.arrived == 0 || cta.arrived < cta.liveWarp {
		return
	}
	cta.arrived = 0
	for _, slot := range cta.warps {
		ww := s.warps[slot]
		if ww.atBarrier {
			ww.atBarrier = false
			ww.stalled = false
			s.refreshIssue(ww)
		}
	}
}
