package sm

import (
	"bow/internal/core"
	"bow/internal/isa"
	"bow/internal/trace"
)

// evKind discriminates the typed completion records the cycle loop
// schedules. The seed implementation scheduled closures on a
// map[int64][]func() calendar; each kind below corresponds to one of
// those closure shapes, so event application is a switch dispatch with
// no per-instruction allocation.
type evKind uint8

const (
	// evALU completes an ALU/FPU/SFU instruction: merge the destination
	// predicate (if any) and write back the result.
	evALU evKind = iota
	// evMem completes a memory instruction: write back the loaded value
	// (isLoad) or just release the scoreboard (stores, fences).
	evMem
	// evBranch resolves a branch: reconvergence-stack update, unstall.
	evBranch
	// evExitRet terminates lanes and possibly the warp.
	evExitRet
	// evBar completes a bar.sync and arrives at the CTA barrier.
	evBar
	// evNoDest completes an instruction with no register result.
	evNoDest
	// evDelivery delivers a forwarded operand through the collector port
	// after the RF pipeline delay (ForwardThroughPort / RFC mode only).
	evDelivery
	// evWarpExit retries warpExited once in-flight work has drained.
	evWarpExit
)

// event is one scheduled completion. Records are free-listed by the
// calendar, so steady-state cycling allocates nothing.
//
//bow:state
type event struct {
	next    *event
	f       *inflight
	w       *warpCtx // evWarpExit only
	kind    evKind
	isLoad  bool  // evMem
	reg     uint8 // evDelivery
	mask    uint32
	predOut uint32     // evALU
	result  core.Value // evALU / evMem result, evDelivery value
}

// eventList is a FIFO of events (fired in scheduling order, matching
// the seed calendar's append semantics).
//
//bow:state
type eventList struct {
	head *event
	tail *event //bow:derived -- FIFO tail; a load re-schedules events in firing order, which rebuilds it
}

func (l *eventList) push(ev *event) {
	ev.next = nil
	if l.tail == nil {
		l.head = ev
	} else {
		l.tail.next = ev
	}
	l.tail = ev
}

// take detaches and returns the whole list.
func (l *eventList) take() *event {
	h := l.head
	l.head, l.tail = nil, nil
	return h
}

// farEvent parks an event scheduled beyond the wheel horizon.
//
//bow:state
type farEvent struct {
	at int64
	ev *event
}

// eventWheel is a fixed-size timing-wheel calendar: slot (cycle &
// mask) holds the events due at that cycle. All pipeline latencies are
// small and bounded (bank pipeline, FU latencies, memory hierarchy +
// coalescing serialization), so the wheel is sized at construction to
// cover them all; anything farther out — possible only with exotic
// configs — parks in the far list and migrates into the wheel as its
// cycle approaches.
//
//bow:state
type eventWheel struct {
	slots []eventList
	mask  int64  //bow:resetskip -- wheel geometry, fixed at construction from the configured latency span
	free  *event //bow:derived -- recycled-event pool; dead records by definition, rebuilt empty on restore
	far   []farEvent
}

func newEventWheel(minSpan int) *eventWheel {
	size := 64
	for size <= minSpan {
		size *= 2
	}
	return &eventWheel{slots: make([]eventList, size), mask: int64(size - 1)}
}

// alloc returns a recycled event record with every field except result
// reset. result is deliberately left stale: each scheduling site either
// assigns it whole (evMem, evDelivery) or writes its active lanes and
// completes through a mask-gated merge (evALU), so stale lanes are
// never observed, and skipping the 128-byte clear per event matters in
// the hot loop.
//
//bow:hotpath
func (w *eventWheel) alloc() *event {
	if ev := w.free; ev != nil {
		w.free = ev.next
		ev.next = nil
		return ev
	}
	// Refill a slab at a time; single-record warm-up showed up in short
	// runs' allocation profiles.
	//bowvet:ignore hotpathalloc -- amortized slab refill; steady state serves from the free list
	slab := make([]event, 16)
	for i := range slab[1:] {
		slab[1+i].next = w.free
		w.free = &slab[1+i]
	}
	return &slab[0]
}

// release resets the record's bookkeeping fields (not result — see
// alloc) and returns it to the free list.
//
//bow:hotpath
func (w *eventWheel) release(ev *event) {
	ev.f = nil
	ev.w = nil
	ev.kind = 0
	ev.isLoad = false
	ev.reg = 0
	ev.mask = 0
	ev.predOut = 0
	ev.next = w.free
	w.free = ev
}

// reset drains every pending event — wheel slots and the far list —
// back onto the free list, restoring the calendar to its
// freshly-constructed (empty, cycle-zero-consistent) state. The free
// list itself is kept: recycling a retired SM's calendar keeps its
// warmed-up event records, which is the point. Pending events can
// exist only when the previous run ended early (cycle-limit error);
// a completed kernel leaves the wheel empty.
func (w *eventWheel) reset() {
	for i := range w.slots {
		for ev := w.slots[i].take(); ev != nil; {
			next := ev.next
			w.release(ev)
			ev = next
		}
	}
	for i, fe := range w.far {
		w.release(fe.ev)
		w.far[i] = farEvent{}
	}
	w.far = w.far[:0]
}

// schedule files ev to fire at absolute cycle at (> now).
//
//bow:hotpath
func (w *eventWheel) schedule(now, at int64, ev *event) {
	if at-now <= w.mask {
		w.slots[at&w.mask].push(ev)
		return
	}
	w.far = append(w.far, farEvent{at: at, ev: ev})
}

// due detaches the event chain firing at cycle now.
//
//bow:hotpath
func (w *eventWheel) due(now int64) *event {
	if len(w.far) > 0 {
		// Migrate far events whose cycle now fits the wheel horizon,
		// preserving scheduling order.
		kept := w.far[:0]
		for _, fe := range w.far {
			if fe.at-now <= w.mask {
				w.slots[fe.at&w.mask].push(fe.ev)
			} else {
				kept = append(kept, fe)
			}
		}
		for i := len(kept); i < len(w.far); i++ {
			w.far[i] = farEvent{}
		}
		w.far = kept
	}
	return w.slots[now&w.mask].take()
}

// schedule files ev delay cycles ahead (min 1), on the wheel or — in
// reference-loop mode — on the seed-style map calendar.
//
//bow:hotpath
func (s *SM) schedule(delay int, ev *event) {
	if delay < 1 {
		delay = 1
	}
	at := s.cycle + int64(delay)
	if s.ref {
		s.refEvents[at] = append(s.refEvents[at], ev)
		return
	}
	s.wheel.schedule(s.cycle, at, ev)
}

// runEvents fires every event due this cycle, in scheduling order, and
// recycles the records.
//
//bow:hotpath
func (s *SM) runEvents() {
	if s.ref {
		evs, ok := s.refEvents[s.cycle]
		if !ok {
			return
		}
		delete(s.refEvents, s.cycle)
		for _, ev := range evs {
			if s.Tracer != nil {
				s.traceWheelPop(ev)
			}
			s.apply(ev)
			s.wheel.release(ev)
		}
		return
	}
	for ev := s.wheel.due(s.cycle); ev != nil; {
		next := ev.next
		if s.Tracer != nil {
			s.traceWheelPop(ev)
		}
		s.apply(ev)
		s.wheel.release(ev)
		ev = next
	}
}

// traceWheelPop emits one EvWheelPop record for a due event. Both cycle
// loops call it so a traced reference run and a traced wheel run yield
// the same stream. Callers pre-check s.Tracer to keep the disabled path
// free; the bail here makes the helper safe on its own.
//
//bow:hotpath
func (s *SM) traceWheelPop(ev *event) {
	if s.Tracer == nil {
		return
	}
	warp := -1
	if ev.f != nil && ev.f.warp != nil {
		warp = ev.f.warp.slot
	} else if ev.w != nil {
		warp = ev.w.slot
	}
	s.Tracer.Emit(s.cycle, s.id, warp, trace.EvWheelPop, int32(ev.kind))
}

// apply performs one completion record.
//
//bow:hotpath
func (s *SM) apply(ev *event) {
	switch ev.kind {
	case evALU:
		f := ev.f
		in := f.in
		if in.HasDstPred {
			w := f.warp
			old := w.preds[in.DstPred]
			w.preds[in.DstPred] = (old &^ ev.mask) | (ev.predOut & ev.mask)
		}
		s.writeback(f, &ev.result, ev.mask)
	case evMem:
		if ev.isLoad {
			s.writeback(ev.f, &ev.result, ev.mask)
		} else {
			s.completeNoDest(ev.f)
		}
	case evBranch:
		s.resolveBranch(ev.f, ev.mask)
	case evExitRet:
		f := ev.f
		w := f.warp
		w.exitLanes(ev.mask)
		w.stalled = false
		s.refreshIssue(w)
		s.completeNoDest(f)
		if w.top() == nil {
			s.warpExited(w)
		}
	case evBar:
		w := ev.f.warp
		s.completeNoDest(ev.f)
		s.barrierArrive(w)
	case evNoDest:
		s.completeNoDest(ev.f)
	case evDelivery:
		f := ev.f
		f.pushDelivery(f.slotMask(ev.reg), &ev.result)
	case evWarpExit:
		s.warpExited(ev.w)
	}
}

// instEvent allocates an event bound to f.
//
//bow:hotpath
func (s *SM) instEvent(kind evKind, f *inflight) *event {
	ev := s.wheel.alloc()
	ev.kind = kind
	ev.f = f
	return ev
}

// readyLess is the dispatch priority: oldest-issued first, then warp
// slot, then per-warp program order — the stable form of the seed's
// sort key (issueCycle, slot), whose ties are same-warp instructions in
// issue order.
func readyLess(a, b *inflight) bool {
	if a.issueCycle != b.issueCycle {
		return a.issueCycle < b.issueCycle
	}
	if a.warp.slot != b.warp.slot {
		return a.warp.slot < b.warp.slot
	}
	return a.seq < b.seq
}

// readyInsert files f into the dispatch-ordered ready list. Newly
// ready instructions usually belong at the tail (their issue cycle is
// recent), so insertion walks backwards from the tail.
//
//bow:hotpath
func (s *SM) readyInsert(f *inflight) {
	at := s.readyTail
	for at != nil && readyLess(f, at) {
		at = at.rprev
	}
	if at == nil { // new head
		f.rprev = nil
		f.rnext = s.readyHead
		if s.readyHead != nil {
			s.readyHead.rprev = f
		} else {
			s.readyTail = f
		}
		s.readyHead = f
		return
	}
	f.rprev = at
	f.rnext = at.rnext
	if at.rnext != nil {
		at.rnext.rprev = f
	} else {
		s.readyTail = f
	}
	at.rnext = f
}

// readyRemove unlinks f from the ready list.
//
//bow:hotpath
func (s *SM) readyRemove(f *inflight) {
	if f.rprev != nil {
		f.rprev.rnext = f.rnext
	} else {
		s.readyHead = f.rnext
	}
	if f.rnext != nil {
		f.rnext.rprev = f.rprev
	} else {
		s.readyTail = f.rprev
	}
	f.rprev, f.rnext = nil, nil
}

// wheelSpan computes the calendar horizon the configuration needs: the
// largest completion latency any instruction can schedule, plus the
// coalescing serialization bound (one transaction per cycle, at most
// WarpSize segments) and slack.
func wheelSpan(alu, fpu, sfu, l1, l2, dram, rfLat int) int {
	span := alu
	for _, l := range []int{fpu, sfu, l1, l2, dram, rfLat, 8} {
		if l > span {
			span = l
		}
	}
	return span + isa.WarpSize + 2
}
