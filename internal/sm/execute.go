package sm

import (
	"fmt"
	"sort"

	"bow/internal/core"
	"bow/internal/exec"
	"bow/internal/isa"
	"bow/internal/mem"
	"bow/internal/trace"
)

// coreValue aliases the warp-wide value type for brevity.
type coreValue = core.Value

// dispatch sends collected instructions to the functional units,
// oldest-issued first so no collector starves when many warps become
// ready in the same cycle. The ready list is kept in dispatch order
// (issueCycle, slot, seq) by markReady, so this is a single walk — no
// per-cycle scan over every warp slot and no sort.
//
//bow:hotpath
func (s *SM) dispatch() {
	for f := s.readyHead; f != nil; {
		next := f.rnext
		if !s.pipes.TryIssue(f.in.Class()) {
			s.st.FUStalls++
			f = next
			continue
		}
		f.dispatchCycle = s.cycle
		s.readyRemove(f)
		s.removeCollector(f)
		if err := s.execute(f); err != nil {
			s.execFault(err, f)
		}
		f = next
	}
}

// execFault aborts the simulation on a functional fault: it means a
// kernel or pipeline bug, never a recoverable condition. Out of line so
// the message formatting stays off the dispatch hot path.
func (s *SM) execFault(err error, f *inflight) {
	panic(fmt.Sprintf("sm %d cycle %d: %v (inst %s)", s.id, s.cycle, err, f.in))
}

// dispatchRef is the reference-loop dispatch: scan every collector of
// every warp slot, mark the newly collected ready, and sort the ready
// set. sort.SliceStable on (issueCycle, slot) over the scan order
// yields exactly the (issueCycle, slot, seq) order the ready list
// maintains incrementally — same-key instructions are same-warp and
// appear in issue order.
func (s *SM) dispatchRef() {
	ready := s.refScratch[:0]
	for _, w := range s.warps {
		for _, f := range w.collectors {
			if !f.ready {
				if !f.collected() {
					continue
				}
				f.ready = true
				f.collectCycle = s.cycle
				s.sb.ReleaseReads(w.slot, f.in)
			}
			ready = append(ready, f)
		}
	}
	sort.SliceStable(ready, func(i, j int) bool {
		if ready[i].issueCycle != ready[j].issueCycle {
			return ready[i].issueCycle < ready[j].issueCycle
		}
		return ready[i].warp.slot < ready[j].warp.slot
	})
	for _, f := range ready {
		if !s.pipes.TryIssue(f.in.Class()) {
			s.st.FUStalls++
			continue
		}
		f.dispatchCycle = s.cycle
		s.removeCollector(f)
		if err := s.execute(f); err != nil {
			s.execFault(err, f)
		}
	}
	for i := range ready {
		ready[i] = nil
	}
	s.refScratch = ready[:0]
}

// issueRef is the reference loop's issue stage: every scheduled warp is
// re-evaluated from scratch each cycle, as in the seed implementation.
// It is the oracle the cached scan in issue is checked against.
func (s *SM) issueRef() {
	for _, sched := range s.scheds {
		issued := 0
		for _, wid := range sched.Order(s.canIssue) {
			if issued >= s.gcfg.IssuePerSched {
				break
			}
			w := s.warps[wid]
			if !s.canIssueWarp(w) {
				continue
			}
			t := w.top()
			if t.pc >= len(s.kernel.Program.Code) {
				// Fell off the end: treat as exit.
				w.exitLanes(t.mask)
				if w.top() == nil {
					s.warpExited(w)
				}
				continue
			}
			in := &s.kernel.Program.Code[t.pc]
			if !s.sb.CanIssue(wid, in) {
				s.st.ScoreboardStalls++
				continue
			}
			s.issueInstruction(w, t, in)
			sched.Issued(wid)
			issued++
		}
	}
}

// removeCollector frees the operand-collector unit of a dispatched
// instruction, back to its warp and to the SM's pool, preserving issue
// order of the warp's rest. The vacated tail slot is nilled so the
// record is freelist-eligible the moment it completes — a stale tail
// pointer would keep it (and its operand values) live.
func (s *SM) removeCollector(f *inflight) {
	w := f.warp
	for i, x := range w.collectors {
		if x == f {
			last := len(w.collectors) - 1
			copy(w.collectors[i:], w.collectors[i+1:])
			w.collectors[last] = nil
			w.collectors = w.collectors[:last]
			s.busyCollectors--
			s.refreshIssue(w)
			return
		}
	}
}

// execute performs the functional operation and schedules completion.
func (s *SM) execute(f *inflight) error {
	in := f.in
	w := f.warp

	// Apply the guard predicate.
	mask := f.execMask
	if in.PredReg != isa.PredTrue {
		mask &= w.predBits(in.PredReg, in.PredNeg)
	}

	switch in.Op {
	case isa.OpLd, isa.OpSt, isa.OpAtm:
		return s.executeMem(f, mask)
	case isa.OpBra:
		ev := s.instEvent(evBranch, f)
		ev.mask = mask
		s.schedule(s.pipes.Latency(isa.FUCtrl), ev)
		return nil
	case isa.OpExit, isa.OpRet:
		ev := s.instEvent(evExitRet, f)
		ev.mask = mask
		s.schedule(s.pipes.Latency(isa.FUCtrl), ev)
		return nil
	case isa.OpBar:
		s.schedule(s.pipes.Latency(isa.FUCtrl), s.instEvent(evBar, f))
		return nil
	case isa.OpSSY, isa.OpSync, isa.OpNop:
		s.schedule(s.pipes.Latency(isa.FUCtrl), s.instEvent(evNoDest, f))
		return nil
	}

	// ALU / FPU / SFU. The result is evaluated straight into the
	// completion record. Eval writes only the active lanes; any stale
	// lanes from a recycled record are dropped by the mask-gated merge
	// in writeback.
	ev := s.instEvent(evALU, f)
	predOut, err := exec.Eval(in, &f.srcVals, f.predSrc, mask, &ev.result)
	if err != nil {
		s.wheel.release(ev)
		return err
	}
	ev.mask = mask
	ev.predOut = predOut
	s.schedule(s.pipes.Latency(in.Class()), ev)
	return nil
}

// resolveBranch applies a branch at completion time: control flow is
// resolved at execute latency and the warp unstalls.
func (s *SM) resolveBranch(f *inflight, mask uint32) {
	in := f.in
	w := f.warp
	t := w.top()
	if t != nil {
		taken := mask
		notTaken := f.execMask &^ taken
		switch {
		case taken == 0:
			// Fall through: pc already advanced.
		case notTaken == 0:
			t.pc = in.Target
		default:
			// Divergence: continue on the taken path; the not-taken
			// path and the reconvergence continuation are stacked.
			rpc, ok := s.kernel.Reconv[in.PC]
			if !ok {
				rpc = len(s.kernel.Program.Code)
			}
			fall := t.pc // already advanced past the branch
			t.pc = rpc
			w.stack = append(w.stack,
				simtEntry{pc: fall, rpc: rpc, mask: notTaken},
				simtEntry{pc: in.Target, rpc: rpc, mask: taken},
			)
			s.st.Divergences++
		}
	}
	w.stalled = false
	s.refreshIssue(w)
	s.completeNoDest(f)
}

// executeMem performs address generation, coalescing, functional memory
// access, and schedules the (possibly long-latency) completion.
func (s *SM) executeMem(f *inflight, mask uint32) error {
	in := f.in
	w := f.warp

	if mask == 0 {
		ev := s.instEvent(evMem, f)
		if _, ok := in.DstReg(); ok {
			// Predicated-off load: destination unchanged; still must
			// release the scoreboard.
			ev.isLoad = true
			ev.result = f.oldDst
			ev.mask = 0
		}
		s.schedule(1, ev)
		return nil
	}

	// Per-lane byte addresses.
	var addrs [isa.WarpSize]uint32
	for l := 0; l < isa.WarpSize; l++ {
		if mask&(1<<uint(l)) != 0 {
			addrs[l] = f.srcVals[0][l] + in.ImmOff
		}
	}

	latency := 0
	countTxn := func(n int) {
		s.st.MemTransactions += int64(n)
	}

	var result coreValue
	var ferr error
	switch in.Space {
	case isa.SpaceGlobal:
		segs := mem.CoalesceInto(s.segScratch[:0], addrs[:], mask, s.gcfg.L1LineBytes)
		s.segScratch = segs
		countTxn(len(segs))
		for i, seg := range segs {
			var l int
			if in.Op == isa.OpSt {
				l = s.hier.StoreLatency(seg)
			} else {
				l = s.hier.LoadLatency(seg)
			}
			if l+i > latency { // serialization: one transaction per cycle
				latency = l + i
			}
		}
		ferr = s.accessGlobal(f, mask, addrs[:], &result)
	case isa.SpaceShared:
		cta := s.ctas[w.ctaID]
		latency = s.gcfg.L1HitCycles // scratchpad ~ L1 latency
		countTxn(1)
		ferr = s.accessShared(cta.shared, f, mask, addrs[:], &result)
	case isa.SpaceLocal:
		// Local memory: per-thread backing in global space.
		base := func(l int) uint32 {
			gtid := uint32(w.ctaID)*uint32(s.kernel.BlockDim) + uint32(w.warpInCTA*isa.WarpSize+l)
			return 0x8000_0000 + gtid*0x1_0000
		}
		var laddrs [isa.WarpSize]uint32
		for l := range laddrs {
			if mask&(1<<uint(l)) != 0 {
				laddrs[l] = base(l) + addrs[l]
			}
		}
		segs := mem.CoalesceInto(s.segScratch[:0], laddrs[:], mask, s.gcfg.L1LineBytes)
		s.segScratch = segs
		countTxn(len(segs))
		for i, seg := range segs {
			l := s.hier.LoadLatency(seg)
			if l+i > latency {
				latency = l + i
			}
		}
		ferr = s.accessGlobal(f, mask, laddrs[:], &result)
	case isa.SpaceParam:
		latency = 8 // constant cache
		countTxn(1)
		for l := 0; l < isa.WarpSize; l++ {
			if mask&(1<<uint(l)) == 0 {
				continue
			}
			idx := int(addrs[l] / 4)
			if idx < 0 || idx >= len(s.kernel.Params) {
				return fmt.Errorf("param read out of range: offset 0x%x", addrs[l])
			}
			result[l] = s.kernel.Params[idx]
		}
	default:
		return fmt.Errorf("unsupported memory space %v", in.Space)
	}
	if ferr != nil {
		return ferr
	}

	ev := s.instEvent(evMem, f)
	ev.isLoad = in.Op == isa.OpLd || in.Op == isa.OpAtm
	ev.result = result
	ev.mask = mask
	s.schedule(latency, ev)
	return nil
}

// accessGlobal performs the functional global-memory operation.
func (s *SM) accessGlobal(f *inflight, mask uint32, addrs []uint32, result *coreValue) error {
	in := f.in
	for l := 0; l < isa.WarpSize; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		switch in.Op {
		case isa.OpLd:
			v, err := s.global.Read32(addrs[l])
			if err != nil {
				return err
			}
			result[l] = v
		case isa.OpSt:
			if err := s.global.Write32(addrs[l], f.srcVals[1][l]); err != nil {
				return err
			}
		case isa.OpAtm:
			old, err := s.global.AtomicAdd(addrs[l], f.srcVals[1][l])
			if err != nil {
				return err
			}
			result[l] = old
		}
	}
	return nil
}

// accessShared performs the functional scratchpad operation.
func (s *SM) accessShared(sh *mem.SharedMemory, f *inflight, mask uint32, addrs []uint32, result *coreValue) error {
	in := f.in
	for l := 0; l < isa.WarpSize; l++ {
		if mask&(1<<uint(l)) == 0 {
			continue
		}
		switch in.Op {
		case isa.OpLd:
			v, err := sh.Read32(addrs[l])
			if err != nil {
				return err
			}
			result[l] = v
		case isa.OpSt:
			if err := sh.Write32(addrs[l], f.srcVals[1][l]); err != nil {
				return err
			}
		case isa.OpAtm:
			old, err := sh.AtomicAdd(addrs[l], f.srcVals[1][l])
			if err != nil {
				return err
			}
			result[l] = old
		}
	}
	return nil
}

// writeback delivers a destination-register result: the architectural
// value is merged lane-wise in place into *result (the completion
// record's payload), handed to the window engine (which decides BOC/RF
// placement per policy and hint), and the scoreboard releases the
// dependents.
//
//bow:hotpath
func (s *SM) writeback(f *inflight, result *coreValue, mask uint32) {
	in := f.in
	w := f.warp

	if d, ok := in.DstReg(); ok {
		exec.Merge(result, &f.oldDst, mask)
		eng := s.engines[w.slot]
		buffered := eng.Writeback(d, result, in.WBHint, f.seq)
		s.noteOccupancy(w)
		if s.Tracer != nil && buffered {
			s.Tracer.Emit(s.cycle, s.id, w.slot, trace.EvBOCWrite, int32(eng.Occupancy()))
		}
		s.st.WritebacksByHint[in.WBHint]++
	}
	s.sb.ReleaseWrite(w.slot, in)
	s.unblockIssue(w.slot)
	s.complete(f)
}

// completeNoDest finishes an instruction without a register result.
func (s *SM) completeNoDest(f *inflight) {
	s.sb.ReleaseWrite(f.warp.slot, f.in) // releases dst-pred if any
	s.unblockIssue(f.warp.slot)
	s.complete(f)
}

// complete records end-of-life statistics for the instruction and
// recycles its record. The operand-collection residency is
// issue-to-collected (the paper's OC stage: waiting on bank reads
// through the single collector port); waiting for a free functional
// unit afterwards is not collection time.
//
//bow:hotpath
func (s *SM) complete(f *inflight) {
	s.st.Executed++
	total := s.cycle - f.issueCycle
	oc := f.collectCycle - f.issueCycle
	if total < 1 {
		total = 1
	}
	if oc < 0 {
		oc = 0
	}
	s.st.TotalInstCycles += total
	s.st.OCStageCycles += oc
	if f.in.IsMem() {
		s.st.MemInsts++
		s.st.MemTotalCycles += total
		s.st.MemOCCycles += oc
	} else {
		s.st.NonMemInsts++
		s.st.NonMemTotalCycles += total
		s.st.NonMemOCCycles += oc
	}
	s.releaseInflight(f)
}
