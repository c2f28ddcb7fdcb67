package sm

import (
	"bow/internal/exec"
	"bow/internal/isa"
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
	s.issueState[w.slot] = st
}

// unblockIssue lifts a blocked verdict after the scoreboard released
// one of the warp's hazards.
func (s *SM) unblockIssue(slot int) {
	if s.issueState[slot] == issueBlocked {
		s.issueState[slot] = issueCandidate
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
// states: ineligible slots are skipped, blocked ones count a scoreboard
// stall without touching the warp, and only candidates fetch their
// top instruction. Bit-identical to issueRef, which the loop
// differential suites hold it to.
//
//bow:hotpath
func (s *SM) issue() {
	code := s.kernel.Program.Code
	for _, sched := range s.scheds {
		issued := 0
		for _, wid := range sched.Order(s.canIssue) {
			if issued >= s.gcfg.IssuePerSched {
				break
			}
			st := s.issueState[wid]
			if st == issueIneligible || s.busyCollectors >= s.gcfg.NumOCUs {
				continue
			}
			if st == issueBlocked {
				s.st.ScoreboardStalls++
				continue
			}
			w := s.warps[wid]
			t := w.top()
			if t.pc >= len(code) {
				// Fell off the end: treat as exit.
				w.exitLanes(t.mask)
				if w.top() == nil {
					s.warpExited(w)
				}
				s.refreshIssue(w)
				continue
			}
			in := &code[t.pc]
			if !s.sb.CanIssue(wid, in) {
				s.issueState[wid] = issueBlocked
				s.st.ScoreboardStalls++
				continue
			}
			s.issueInstruction(w, t, in)
			sched.Issued(wid)
			issued++
		}
	}
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
	s.busyCollectors++
	s.st.Issued++
	s.refreshIssue(w)

	if s.CaptureTrace {
		key := [2]int{w.ctaID, w.warpInCTA}
		s.Traces[key] = append(s.Traces[key], in)
	}
}
