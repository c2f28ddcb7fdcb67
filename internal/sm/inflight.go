package sm

import (
	"bow/internal/core"
	"bow/internal/isa"
)

// inflight is one warp instruction traversing the pipeline from issue to
// completion. Records are free-listed by the SM (allocInflight /
// releaseInflight), so steady-state issue allocates nothing.
//
//bow:state
type inflight struct {
	in   *isa.Instruction
	warp *warpCtx
	seq  int64 // window sequence number (engine Advance)

	execMask uint32 // SIMT frame mask at issue (guard applied at dispatch)

	issueCycle    int64
	collectCycle  int64 // all operands captured
	dispatchCycle int64

	// Operand values in operand-slot order.
	srcVals [isa.MaxSrcOperands]core.Value
	// oldDst is the destination's value at issue time, the merge base
	// for predicated/divergent partial writes. It is final by issue
	// time: the scoreboard's WAW check admits no other in-flight writer.
	oldDst core.Value
	// predSrc holds the per-lane bits of a predicate source (sel).
	predSrc uint32

	// outstanding counts register source operands not yet captured.
	outstanding int
	// deliv buffers RF reads that arrived but haven't passed through
	// the collector's single port yet (one consumed per cycle). At most
	// one delivery per distinct source register, so a fixed ring
	// suffices.
	deliv     [isa.MaxSrcOperands]delivery
	delivHead uint8
	delivLen  uint8

	ready bool // operands complete, awaiting a functional-unit slot

	// rnext/rprev link the SM's dispatch-ordered ready list.
	rnext *inflight
	rprev *inflight //bow:derived -- back link; a load rebuilds it from the serialized forward walk
}

// delivery is one register value awaiting the collector port, with the
// operand slots it feeds as a bitmask.
//
//bow:state
type delivery struct {
	slots uint8
	val   core.Value
}

// pushDelivery buffers an arrived register value, copying *val into
// the ring slot. The first buffered delivery puts the collector on its
// SM's port worklist; it stays there until the ring is empty again.
func (f *inflight) pushDelivery(slots uint8, val *core.Value) {
	if int(f.delivLen) == len(f.deliv) {
		panic("sm: delivery ring overflow")
	}
	d := &f.deliv[(f.delivHead+f.delivLen)%uint8(len(f.deliv))]
	d.slots, d.val = slots, *val
	f.delivLen++
	if f.delivLen == 1 {
		f.warp.sm.portPush(f)
	}
}

// portPush puts a collector with a port step due on the worklist the
// fast loop's collector stage walks. The reference loop walks every
// collector instead and keeps no list.
func (s *SM) portPush(f *inflight) {
	if !s.ref {
		s.portq = append(s.portq, f)
	}
}

// consumeDelivery moves one buffered RF delivery into the operand slots
// (the collector is single-ported: one operand per cycle).
func (f *inflight) consumeDelivery() {
	if f.delivLen == 0 {
		return
	}
	d := &f.deliv[f.delivHead]
	f.delivHead = (f.delivHead + 1) % uint8(len(f.deliv))
	f.delivLen--
	for i := 0; i < f.in.NSrc; i++ {
		if d.slots&(1<<uint(i)) != 0 {
			f.srcVals[i] = d.val
		}
	}
	f.outstanding--
}

// fillReg records a forwarded (bypassed) register value directly into
// its operand slots — forwarding bypasses the collector port.
func (f *inflight) fillReg(reg uint8, val *core.Value) {
	for i := 0; i < f.in.NSrc; i++ {
		o := f.in.Srcs[i]
		if o.Kind == isa.OpdReg && o.Reg == reg {
			f.srcVals[i] = *val
		}
	}
}

// slotMask returns the operand slots reading register reg as a bitmask.
func (f *inflight) slotMask(reg uint8) uint8 {
	var m uint8
	for i := 0; i < f.in.NSrc; i++ {
		o := f.in.Srcs[i]
		if o.Kind == isa.OpdReg && o.Reg == reg {
			m |= 1 << uint(i)
		}
	}
	return m
}

// collected reports whether every operand has been captured.
func (f *inflight) collected() bool {
	return f.outstanding == 0 && f.delivLen == 0
}

// DeliverRead implements regfile.ReadSink: a completed bank read
// arrives at this collector, serves every later instruction whose
// operand merged into this fill (request merging in the BOC), and
// fills the window engine's pending entry. Replaces the seed's
// per-read closure. val is borrowed from the register file (a delay-line
// slot, or the register's storage at zero access latency) and passed on
// by pointer: each consumer copies it — pushDelivery into a collector's
// ring, FillFromRF into the pending entry — and none of them writes
// register storage (a fill evicts nothing), so every copy reads the
// delivered value.
func (f *inflight) DeliverRead(reg uint8, val *core.Value) {
	w := f.warp
	s := w.sm
	f.pushDelivery(f.slotMask(reg), val)
	if len(w.fillWaiters) > 0 {
		kept := w.fillWaiters[:0]
		for _, fw := range w.fillWaiters {
			if fw.reg == reg {
				fw.f.pushDelivery(fw.f.slotMask(reg), val)
			} else {
				kept = append(kept, fw)
			}
		}
		for i := len(kept); i < len(w.fillWaiters); i++ {
			w.fillWaiters[i] = fillWaiter{}
		}
		w.fillWaiters = kept
	}
	s.engines[w.slot].FillFromRF(reg, val, f.seq)
	s.noteOccupancy(w)
}

// allocInflight returns a reset record from the SM's free list,
// refilling it a slab at a time — an inflight is ~1 KiB, and warming up
// one object per issue dominated short runs' allocation profile.
func (s *SM) allocInflight() *inflight {
	n := len(s.freeInflights)
	if n == 0 {
		slab := make([]inflight, 16)
		for i := range slab[1:] {
			s.freeInflights = append(s.freeInflights, &slab[1+i])
		}
		return &slab[0]
	}
	f := s.freeInflights[n-1]
	s.freeInflights[n-1] = nil
	s.freeInflights = s.freeInflights[:n-1]
	return f
}

// releaseInflight recycles a completed record. Safe at complete():
// the instruction has left the collectors and ready list, all its
// deliveries and events have fired, and no fill waiter references it.
//
// Only bookkeeping fields are reset; the large value payloads (srcVals,
// oldDst, deliv values) are left stale. That is safe because every
// consumer reads them only after a fresh write on the reused record:
// srcVals slots are filled per NSrc before Eval, oldDst is captured at
// issue, and deliv entries are written by pushDelivery before
// consumeDelivery can see them (delivHead/delivLen restart at zero).
// Skipping the ~1 KiB memclr per retired instruction is one of the
// loop's larger wins.
func (s *SM) releaseInflight(f *inflight) {
	f.in = nil
	f.warp = nil
	f.seq = 0
	f.execMask = 0
	f.issueCycle = 0
	f.collectCycle = 0
	f.dispatchCycle = 0
	f.predSrc = 0
	f.outstanding = 0
	f.delivHead = 0
	f.delivLen = 0
	f.ready = false
	f.rnext = nil
	f.rprev = nil
	// deliv slot bitmasks are cleared so a stale slots byte can never be
	// mistaken for a live one (defensive; delivLen==0 already guards).
	for i := range f.deliv {
		f.deliv[i].slots = 0
	}
	s.freeInflights = append(s.freeInflights, f)
}
