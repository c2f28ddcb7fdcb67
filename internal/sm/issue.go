package sm

import (
	"math/bits"

	"bow/internal/exec"
	"bow/internal/isa"
	"bow/internal/scheduler"
	"bow/internal/trace"
)

// Issue states, one byte per warp slot (SM.issueState). The fast issue
// scan reads the byte instead of re-deriving a verdict that cannot have
// changed since it was last computed.
const (
	// issueIneligible: no resident CTA, done, stalled on control flow,
	// both collectors busy, or no SIMT frame left.
	issueIneligible uint8 = iota
	// issueCandidate: structurally able to issue; the scan fetches the
	// top instruction and asks the scoreboard.
	issueCandidate
	// issueBlocked: a candidate whose top instruction the scoreboard
	// refused. Only the warp's own releases (ReleaseReads,
	// ReleaseWrite) or a structural change can lift that verdict, so
	// until then the scan counts the stall without asking again.
	issueBlocked
)

// refreshIssue recomputes w's issue state from its structural inputs,
// dropping any blocked verdict. Every site that changes one of them —
// residency, done, stalled, the collector count or the SIMT stack —
// calls it. The SM-wide collector pool is not folded in: it changes
// every cycle, and the scan checks it directly.
func (s *SM) refreshIssue(w *warpCtx) {
	st := issueIneligible
	if w.ctaID >= 0 && !w.done && !w.stalled &&
		len(w.collectors) < collectorsPerWarp && w.peekTop() != nil {
		st = issueCandidate
	}
	s.setIssue(w.slot, st)
}

// unblockIssue lifts a blocked verdict after the scoreboard released
// one of the warp's hazards.
func (s *SM) unblockIssue(slot int) {
	if s.issueState[slot] == issueBlocked {
		s.setIssue(slot, issueCandidate)
	}
}

// setIssue is the one writer of a slot's issue state: the byte, and
// its bit in the candidate and blocked masks that index the bytes by
// slot for the scan.
func (s *SM) setIssue(slot int, st uint8) {
	s.issueState[slot] = st
	bit := uint64(1) << uint(slot)
	s.candMask &^= bit
	s.blockMask &^= bit
	switch st {
	case issueCandidate:
		s.candMask |= bit
	case issueBlocked:
		s.blockMask |= bit
	}
}

// canIssueWarp reports whether the warp can accept a new instruction
// this cycle (structural conditions; per-instruction hazards are checked
// against the scoreboard after fetching). The reference scan evaluates
// it from scratch; the fast scan reads issueState instead.
//
//bow:hotpath
func (s *SM) canIssueWarp(w *warpCtx) bool {
	if w.ctaID < 0 || w.done || w.stalled || len(w.collectors) >= collectorsPerWarp {
		return false
	}
	if s.busyCollectors >= s.gcfg.NumOCUs {
		return false // operand-collector pool exhausted
	}
	return w.top() != nil
}

// collectorsPerWarp is how many in-flight instructions of one warp may
// occupy operand collectors simultaneously (dual issue).
const collectorsPerWarp = 2

// issue runs every warp scheduler for one cycle over the cached issue
// states, visiting the slots in the order scheduler.Order ranks them:
// the greedy warp first, then the rotation from RotationStart (age
// order under GTO). The slot masks stand in for the ranking — a
// scheduler with no eligible slot is skipped outright, blocked slots
// are counted by popcount without being visited, and only candidates
// fetch their top instruction. Bit-identical to issueRef, which the
// loop differential suites hold it to.
//
//bow:hotpath
func (s *SM) issue() {
	for i, sched := range s.scheds {
		// Order drops a greedy warp that cannot issue before ranking.
		if g := sched.Greedy(); g >= 0 &&
			(s.issueState[g] == issueIneligible || s.busyCollectors >= s.gcfg.NumOCUs) {
			sched.DropGreedy()
		}
		part := s.partMask[i]
		if (s.candMask|s.blockMask)&part == 0 {
			continue
		}
		issued := 0
		if g := sched.Greedy(); g >= 0 {
			bit := uint64(1) << uint(g)
			issued = s.issueSlots(sched, bit, issued)
			part &^= bit
		}
		below := uint64(1)<<uint(sched.RotationStart()) - 1
		issued = s.issueSlots(sched, part&^below, issued)
		s.issueSlots(sched, part&below, issued)
	}
}

// issueSlots visits the slots of mask in ascending order for one
// scheduler that has already issued issued instructions this cycle,
// and returns the new count. The scan stops at the issue width or once
// the collector pool is full. Until then every blocked slot counts one
// scoreboard stall, and the blocked slots before each candidate are
// counted with one popcount. State is read live from the masks after
// each candidate, because a candidate's pc-past-end exit can change
// other slots (a barrier release, a retired CTA).
//
//bow:hotpath
func (s *SM) issueSlots(sched *scheduler.Scheduler, mask uint64, issued int) int {
	for issued < s.gcfg.IssuePerSched && s.busyCollectors < s.gcfg.NumOCUs {
		cand := s.candMask & mask
		if cand == 0 {
			s.st.ScoreboardStalls += int64(bits.OnesCount64(s.blockMask & mask))
			break
		}
		wid := bits.TrailingZeros64(cand)
		before := uint64(1)<<uint(wid) - 1
		s.st.ScoreboardStalls += int64(bits.OnesCount64(s.blockMask & mask & before))
		mask &^= before | 1<<uint(wid)
		if s.tryIssue(sched, wid) {
			issued++
		}
	}
	return issued
}

// tryIssue tries to issue the top instruction of candidate slot wid
// and reports whether it did. A warp past the end of its program
// exits instead; a scoreboard refusal records the blocked verdict.
//
//bow:hotpath
func (s *SM) tryIssue(sched *scheduler.Scheduler, wid int) bool {
	code := s.kernel.Program.Code
	w := s.warps[wid]
	t := w.top()
	if t.pc >= len(code) {
		// Fell off the end: treat as exit.
		w.exitLanes(t.mask)
		if w.top() == nil {
			s.warpExited(w)
		}
		s.refreshIssue(w)
		return false
	}
	in := &code[t.pc]
	if !s.sb.CanIssue(wid, in) {
		s.setIssue(wid, issueBlocked)
		s.st.ScoreboardStalls++
		return false
	}
	s.issueInstruction(w, t, in)
	sched.Issued(wid)
	return true
}

// issueInstruction moves one instruction into the operand-collection
// stage: the window engine slides (possibly evicting values to the RF),
// forwarded operands are captured immediately, and RF reads are enqueued
// to the banks.
//
//bow:hotpath
func (s *SM) issueInstruction(w *warpCtx, t *simtEntry, in *isa.Instruction) {
	s.sb.Reserve(w.slot, in)
	w.issued++

	f := s.allocInflight()
	f.in = in
	f.warp = w
	f.execMask = t.mask
	f.issueCycle = s.cycle

	// Control flow: stall the warp until resolution.
	if in.Op == isa.OpBra || in.Op == isa.OpExit || in.Op == isa.OpRet || in.Op == isa.OpBar {
		w.stalled = true
	}
	// Advance the PC now; branches overwrite it at resolution.
	t.pc++

	// Fig. 8: number of distinct register source operands.
	_, nsrc := in.UniqueSrcRegs()
	s.st.SrcOperands.Observe(nsrc)

	// Capture the destination's current value before the window slides:
	// it is the merge base for partial (predicated/divergent) writes and
	// must be read while a superseded window entry still holds it.
	if d, ok := in.DstReg(); ok {
		f.oldDst = *s.effectiveValue(w.slot, d)
	}

	// Slide the window. Evictions enqueue RF writes through the engine
	// sink; forwarded operands fill instantly (multi-operand forwarding).
	eng := s.engines[w.slot]
	var coalescedBefore int64
	if s.Tracer != nil {
		coalescedBefore = eng.Coalesced()
	}
	plan := &s.plan
	eng.Advance(in, plan)
	f.seq = plan.Seq
	s.noteOccupancy(w)

	if tr := s.Tracer; tr != nil {
		tr.Emit(s.cycle, s.id, w.slot, trace.EvWarpIssue, int32(in.PC))
		for i := 0; i < plan.NBypassed; i++ {
			tr.Emit(s.cycle, s.id, w.slot, trace.EvBOCHit, int32(plan.BypassedRegs[i]))
		}
		for i := 0; i < plan.NPendingRegs; i++ {
			tr.Emit(s.cycle, s.id, w.slot, trace.EvBOCHit, int32(plan.PendingRegs[i]))
		}
		for i := 0; i < plan.NNeedRF; i++ {
			tr.Emit(s.cycle, s.id, w.slot, trace.EvBOCMiss, int32(plan.NeedRF[i]))
		}
		if d, ok := in.DstReg(); ok && eng.Coalesced() > coalescedBefore {
			tr.Emit(s.cycle, s.id, w.slot, trace.EvWriteConsolidate, int32(d))
		}
	}

	if s.bcfg.ForwardThroughPort {
		// RFC comparator mode: the cache is organized like the RF, so a
		// hit avoids the bank port but still traverses the same
		// arbitration/crossbar pipeline and the collector's single port
		// — only bank conflicts are saved (paper §V-A).
		f.outstanding = plan.NNeedRF + plan.NBypassed
		for i := 0; i < plan.NBypassed; i++ {
			ev := s.instEvent(evDelivery, f)
			ev.reg = plan.BypassedRegs[i]
			ev.result = plan.Bypassed[i]
			s.schedule(s.gcfg.RFAccessLat, ev)
		}
	} else {
		for i := 0; i < plan.NBypassed; i++ {
			f.fillReg(plan.BypassedRegs[i], &plan.Bypassed[i])
		}
		f.outstanding = plan.NNeedRF
	}
	// Bank reads deliver through f.DeliverRead (regfile.ReadSink): the
	// value enters this collector, fills the window engine, and serves
	// every merged waiter — the seed's per-read closure, devirtualized.
	for i := 0; i < plan.NNeedRF; i++ {
		s.rf.EnqueueReadSink(w.slot, plan.NeedRF[i], f)
	}

	// Operands merged into an earlier in-flight fill (request merging in
	// the BOC): no new bank read; the value arrives with that fill
	// through this collector's own port.
	for i := 0; i < plan.NPendingRegs; i++ {
		w.fillWaiters = append(w.fillWaiters, fillWaiter{reg: plan.PendingRegs[i], f: f})
		f.outstanding++
	}

	// Non-register operands resolve immediately.
	for i := 0; i < in.NSrc; i++ {
		o := in.Srcs[i]
		switch o.Kind {
		case isa.OpdImm:
			exec.Broadcast(&f.srcVals[i], o.Imm)
		case isa.OpdSpecial:
			s.specialValue(w, o.Spec, &f.srcVals[i])
		case isa.OpdPred:
			f.predSrc = w.preds[o.Reg]
		case isa.OpdReg:
			if o.Reg == isa.RegZero {
				f.srcVals[i] = coreValue{}
			}
		}
	}

	w.collectors = append(w.collectors, f)
	if f.collected() {
		// Every operand was forwarded: no delivery will put the
		// collector on the port worklist, so issue does.
		s.portPush(f)
	}
	s.busyCollectors++
	s.st.Issued++
	s.refreshIssue(w)

	if s.CaptureTrace {
		key := [2]int{w.ctaID, w.warpInCTA}
		s.Traces[key] = append(s.Traces[key], in)
	}
}
