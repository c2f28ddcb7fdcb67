package sm

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"

	"bow/internal/core"
	"bow/internal/isa"
	"bow/internal/mem"
	"bow/internal/regfile"
	"bow/internal/snap"
	"bow/internal/stats"
)

// This file serializes one SM's complete pipeline state (DESIGN.md
// §10) in one walk, SM.State, which lists every field once for both
// directions. The pointer graph — in-flight instruction records
// referenced by collectors, the ready list, timing-wheel events, and
// register-file read sinks — is flattened through a dense in-flight ID
// table. A save builds it first by a deterministic walk: collectors in
// warp-slot order, then event-only records (dispatched instructions
// awaiting completion) in wheel-firing order; a load fills it from the
// stream. Free lists and scratch buffers (wheel free list,
// freeInflights, segScratch, the scheduler ranking buffer) are derived
// state: they are rebuilt empty on restore, which is architecturally
// indistinguishable from the recycled-but-stale records a cold run
// carries, because every consumer overwrites a record before reading
// it. Indexes over restored state (the active list, issue states and
// masks, the port worklist, the open occupancy runs) are rebuilt from
// it at the end of a load (rederive). The snapshot's caller flushes the
// occupancy runs into the histogram first (FlushOccupancy).

// StateHash fingerprints the kernel for snapshot compatibility checks:
// program geometry, launch parameters, and every instruction excluding
// its BOW-WR writeback hint and derived caches (hazard masks, labels).
// Hint-agnosticism is deliberate — it lets a baseline snapshot restore
// into a bow-wr run of the same kernel, where only the compiler
// annotation differs.
func (k *Kernel) StateHash() string {
	h := sha256.New()
	var b [8]byte
	wi := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	wb := func(v bool) {
		if v {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	wi(int64(k.GridDim))
	wi(int64(k.BlockDim))
	wi(int64(k.SharedLen))
	wi(int64(len(k.Params)))
	for _, p := range k.Params {
		wi(int64(p))
	}
	wi(int64(len(k.Program.Code)))
	for i := range k.Program.Code {
		in := &k.Program.Code[i]
		wi(int64(in.PC))
		wi(int64(in.Op))
		wi(int64(in.Cmp))
		wi(int64(in.Space))
		wb(in.HasDst)
		wi(int64(in.Dst))
		wi(int64(in.DstPred))
		wb(in.HasDstPred)
		wi(int64(in.NSrc))
		for _, o := range in.Srcs {
			wi(int64(o.Kind))
			wi(int64(o.Reg))
			wi(int64(o.Imm))
			wi(int64(o.Spec))
		}
		wi(int64(in.PredReg))
		wb(in.PredNeg)
		wi(int64(in.Target))
		wi(int64(in.ImmOff))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// State walks the run statistics, including the residency histograms.
func (r *RunStats) State(st *snap.State) {
	for _, v := range [...]*int64{
		&r.Cycles, &r.Issued, &r.Executed, &r.CTAsRetired,
		&r.ScoreboardStalls, &r.FUStalls, &r.Divergences, &r.MemTransactions,
		&r.TotalInstCycles, &r.OCStageCycles, &r.MemInsts, &r.MemTotalCycles,
		&r.MemOCCycles, &r.NonMemInsts, &r.NonMemTotalCycles, &r.NonMemOCCycles,
	} {
		st.I64(v)
	}
	for i := range r.WritebacksByHint {
		st.I64(&r.WritebacksByHint[i])
	}
	hists := [...]*stats.Histogram{r.OccupancyBOC, r.OccupancyOCU, r.SrcOperands}
	var has [len(hists)]bool
	for i, h := range hists {
		has[i] = h != nil
		st.Bool(&has[i])
	}
	for i, h := range hists {
		if has[i] && h == nil {
			name := [...]string{"OccupancyBOC", "OccupancyOCU", "SrcOperands"}[i]
			st.Fail(fmt.Errorf("sm: snapshot has %s, target histogram is nil", name))
			return
		}
		if has[i] {
			h.State(st)
		}
	}
}

// flightTable flattens the in-flight pointer graph to dense ids.
type flightTable struct {
	flights []*inflight
	ids     map[*inflight]int32 // save only
	events  []farEvent          // save only: pending events in firing order
}

func (t *flightTable) intern(f *inflight) {
	if _, ok := t.ids[f]; f != nil && !ok {
		t.ids[f] = int32(len(t.flights))
		t.flights = append(t.flights, f)
	}
}

// ref walks one in-flight pointer as its table id, -1 for nil. A load
// accepts -1 only where orNil allows it.
func (t *flightTable) ref(st *snap.State, f **inflight, orNil bool) {
	id := int32(-1)
	if !st.Loading() && *f != nil {
		id = t.ids[*f]
	}
	st.I32(&id)
	if !st.Loading() {
		return
	}
	*f = nil
	switch {
	case id >= 0 && int(id) < len(t.flights):
		*f = t.flights[id]
	case id >= 0:
		st.Fail(fmt.Errorf("sm: in-flight id %d out of range", id))
	case !orNil:
		st.Fail(fmt.Errorf("sm: unexpected nil in-flight reference"))
	}
}

// resize returns s with length n, reusing its backing array when it
// can; a save passes len(s) and gets s back unchanged.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// State walks the SM's complete pipeline state. A save must happen at
// a device-cycle boundary (after Cycle returns): the current cycle's
// wheel slot is then drained and every pending event fires strictly in
// the future. A load needs a freshly constructed SM of the same
// configuration (same kernel, chip config, and scheduler
// partitioning). Instruction pointers serialize as program counters,
// warp pointers as slot numbers, in-flight pointers as table ids.
func (s *SM) State(st *snap.State) {
	if s.ref {
		st.Fail(fmt.Errorf("sm %d: reference-loop state is not snapshottable", s.id))
		return
	}
	t := &flightTable{}
	if !st.Loading() {
		if s.wheel.slots[s.cycle&s.wheel.mask].head != nil {
			st.Fail(fmt.Errorf("sm %d: wheel slot for cycle %d not drained (snapshot requires a cycle boundary)", s.id, s.cycle))
			return
		}
		s.buildFlightTable(t)
	}
	st.I64(&s.cycle)
	s.st.State(st)
	st.Int(&s.freeWarpSlots)
	st.Int(&s.freeTBSlots)
	s.flightsState(st, t)
	s.warpsState(st, t)
	s.ctasState(st)
	s.readyState(st, t)
	s.eventsState(st, t)
	s.sb.State(st)
	n := len(s.scheds)
	st.Int(&n)
	if n != len(s.scheds) {
		st.Fail(fmt.Errorf("sm: snapshot has %d schedulers, target has %d", n, len(s.scheds)))
		return
	}
	for _, sc := range s.scheds {
		sc.State(st)
	}
	for _, eng := range s.engines {
		eng.State(st)
	}
	s.rf.State(st, s.kernel.Program.NumRegs(), func(st *snap.State, sink *regfile.ReadSink) {
		f, ok := (*sink).(*inflight)
		if !ok && *sink != nil {
			st.Fail(fmt.Errorf("sm: unknown read-sink type %T", *sink))
		}
		t.ref(st, &f, false)
		if f != nil {
			*sink = f
		}
	})
	s.hier.L1.State(st)
	s.captureState(st)
	if st.Loading() && st.Err() == nil {
		s.rederive()
	}
}

// buildFlightTable numbers the in-flight records for a save:
// collectors first (warp-slot order, issue order within a warp), then
// event-only records (dispatched, completion pending) in wheel order.
func (s *SM) buildFlightTable(t *flightTable) {
	t.ids = make(map[*inflight]int32)
	for _, w := range s.warps {
		for _, f := range w.collectors {
			t.intern(f)
		}
	}
	for d := int64(1); d <= s.wheel.mask; d++ {
		at := s.cycle + d
		for ev := s.wheel.slots[at&s.wheel.mask].head; ev != nil; ev = ev.next {
			t.events = append(t.events, farEvent{at: at, ev: ev})
			t.intern(ev.f)
		}
	}
	for _, fe := range s.wheel.far {
		t.events = append(t.events, fe)
		t.intern(fe.ev.f)
	}
}

// rederive rebuilds the indexes over loaded state. The active list is
// rebuilt in slot order. Order is immaterial to the simulation (see
// activeAdd) but slot order keeps restored state canonical: a second
// snapshot of the restored SM is byte-identical. It is rebuilt after
// the engines are loaded, so activeAdd opens each warp's occupancy run
// at the restored occupancy; the snapshot's histogram was flushed up to
// this cycle. Issue states restart without blocked verdicts: a blocked
// slot restores as a candidate whose first scan re-asks the scoreboard
// and gets the same answer. The port worklist holds every collector
// with a buffered delivery or, all operands forwarded, not yet ready.
func (s *SM) rederive() {
	clear(s.active)
	s.active = s.active[:0]
	s.busyCollectors = 0
	clear(s.portq)
	s.portq = s.portq[:0]
	for _, w := range s.warps {
		w.activeIdx = -1
		if w.ctaID >= 0 && !w.done {
			s.activeAdd(w)
		}
		s.busyCollectors += len(w.collectors)
		s.refreshIssue(w)
		for _, f := range w.collectors {
			if f.delivLen > 0 || (!f.ready && f.collected()) {
				s.portPush(f)
			}
		}
	}
	// The tracer's conflict-delta baseline: in a traced cold run this
	// tracks the RF conflict counter exactly (it re-syncs every cycle the
	// counter moves), so seeding it from the restored counter reproduces
	// the cold event stream from the first resumed cycle.
	s.lastBankConflicts = s.rf.Stats().BankConflicts
}

// inflightMinBytes is the encoded size of an in-flight record with an
// empty delivery ring: pc, slot, seq, execMask, three cycle stamps, the
// source and old-destination values, predSrc, outstanding, ready, and
// the ring length.
const inflightMinBytes = 8 + 8 + 8 + 4 + 3*8 + (isa.MaxSrcOperands+1)*core.ValueBytes + 4 + 8 + 1 + 1

// flightsState walks the in-flight records.
func (s *SM) flightsState(st *snap.State, t *flightTable) {
	code := s.kernel.Program.Code
	n := len(t.flights)
	st.Count(&n, inflightMinBytes)
	if st.Loading() {
		t.flights = make([]*inflight, n)
	}
	for i, f := range t.flights {
		pc, slot := -1, -1
		if f != nil {
			pc, slot = f.in.PC, f.warp.slot
		}
		st.Int(&pc)
		st.Int(&slot)
		if st.Loading() {
			if st.Err() != nil {
				return
			}
			if pc < 0 || pc >= len(code) || slot < 0 || slot >= len(s.warps) {
				st.Fail(fmt.Errorf("sm: in-flight record %d: pc=%d slot=%d out of range", i, pc, slot))
				return
			}
			f = s.allocInflight()
			f.in, f.warp, f.delivHead = &code[pc], s.warps[slot], 0
			t.flights[i] = f
		}
		st.I64(&f.seq)
		st.U32(&f.execMask)
		st.I64(&f.issueCycle)
		st.I64(&f.collectCycle)
		st.I64(&f.dispatchCycle)
		for j := range f.srcVals {
			st.Words(f.srcVals[j][:])
		}
		st.Words(f.oldDst[:])
		st.U32(&f.predSrc)
		st.Int(&f.outstanding)
		st.Bool(&f.ready)
		st.U8(&f.delivLen)
		if int(f.delivLen) > len(f.deliv) {
			st.Fail(fmt.Errorf("sm: in-flight record %d: delivery ring length %d", i, f.delivLen))
			return
		}
		for j := range f.delivLen {
			d := &f.deliv[(f.delivHead+j)%uint8(len(f.deliv))]
			st.U8(&d.slots)
			st.Words(d.val[:])
		}
	}
}

// warpsState walks the warp contexts in slot order. The active list is
// derived (resident and not done) and rebuilt on load.
func (s *SM) warpsState(st *snap.State, t *flightTable) {
	n := len(s.warps)
	st.Int(&n)
	if n != len(s.warps) {
		st.Fail(fmt.Errorf("sm: snapshot has %d warp slots, target has %d", n, len(s.warps)))
		return
	}
	for _, w := range s.warps {
		st.Int(&w.ctaID)
		st.Int(&w.warpInCTA)
		st.Bool(&w.done)
		st.Bool(&w.stalled)
		st.Bool(&w.atBarrier)
		st.I64(&w.issued)
		for p := range w.preds {
			st.U32(&w.preds[p])
		}
		n := len(w.stack)
		st.Count(&n, 8+8+4) // pc, rpc, mask
		w.stack = resize(w.stack, n)
		for j := range w.stack {
			fr := &w.stack[j]
			st.Int(&fr.pc)
			st.Int(&fr.rpc)
			st.U32(&fr.mask)
		}
		n = len(w.collectors)
		st.Count(&n, 4) // in-flight id
		if n > collectorsPerWarp {
			st.Fail(fmt.Errorf("sm: warp %d has %d collectors (max %d)", w.slot, n, collectorsPerWarp))
			return
		}
		w.collectors = resize(w.collectors, n)
		for j := range w.collectors {
			t.ref(st, &w.collectors[j], false)
		}
		n = len(w.fillWaiters)
		st.Count(&n, 1+4) // reg, in-flight id
		w.fillWaiters = resize(w.fillWaiters, n)
		for j := range w.fillWaiters {
			st.U8(&w.fillWaiters[j].reg)
			t.ref(st, &w.fillWaiters[j].f, false)
		}
	}
}

// ctasState walks the resident CTAs in ascending id order.
func (s *SM) ctasState(st *snap.State) {
	ids := sortedKeys(s.ctas, cmp.Compare[int])
	n := len(ids)
	st.Count(&n, 8+4+8+8+4) // ctaID, warp count, arrived, liveWarp, shared words
	if st.Loading() {
		ids, s.ctas = make([]int, n), make(map[int]*ctaWork, n)
	}
	for _, id := range ids {
		cta := s.ctas[id]
		if st.Loading() {
			cta = &ctaWork{shared: mem.NewShared(0)}
		}
		st.Int(&cta.ctaID)
		nw := len(cta.warps)
		st.Count(&nw, 8) // warp slot
		if st.Loading() {
			cta.warps = make([]int, nw)
		}
		for j := range cta.warps {
			st.Int(&cta.warps[j])
			if slot := cta.warps[j]; slot < 0 || slot >= len(s.warps) {
				st.Fail(fmt.Errorf("sm: CTA %d references warp slot %d", cta.ctaID, slot))
				return
			}
		}
		st.Int(&cta.arrived)
		st.Int(&cta.liveWarp)
		cta.shared.State(st)
		if st.Loading() {
			s.ctas[cta.ctaID] = cta
		}
	}
}

// readyState walks the dispatch-ordered ready list, head to tail; a
// load relinks it.
func (s *SM) readyState(st *snap.State, t *flightTable) {
	n := 0
	for f := s.readyHead; f != nil && !st.Loading(); f = f.rnext {
		n++
	}
	st.Count(&n, 4) // in-flight id
	if st.Loading() {
		s.readyHead, s.readyTail = nil, nil
	}
	var prev *inflight
	for f := s.readyHead; n > 0; n-- {
		t.ref(st, &f, false)
		if f == nil {
			return
		}
		if st.Loading() {
			f.rprev, f.rnext = prev, nil
			if prev == nil {
				s.readyHead = f
			} else {
				prev.rnext = f
			}
			s.readyTail = f
		}
		prev, f = f, f.rnext
	}
}

// eventsState walks the timing wheel: every pending event with its
// absolute fire cycle, in firing order (ascending cycle, chain order
// within a cycle), then far-horizon events in their parking order. A
// load schedules each event again.
func (s *SM) eventsState(st *snap.State, t *flightTable) {
	n := len(t.events)
	st.Count(&n, 8+4+8+1+1+1+4+4+core.ValueBytes) // at, fid, wslot, kind, isLoad, reg, mask, predOut, result
	for i := range n {
		var fe farEvent
		if st.Loading() {
			fe.ev = s.wheel.alloc()
		} else {
			fe = t.events[i]
		}
		ev := fe.ev
		wslot, kind := -1, uint8(ev.kind)
		if ev.w != nil {
			wslot = ev.w.slot
		}
		st.I64(&fe.at)
		t.ref(st, &ev.f, true)
		st.Int(&wslot)
		st.U8(&kind)
		st.Bool(&ev.isLoad)
		st.U8(&ev.reg)
		st.U32(&ev.mask)
		st.U32(&ev.predOut)
		st.Words(ev.result[:])
		if st.Loading() {
			switch {
			case wslot >= len(s.warps):
				st.Fail(fmt.Errorf("sm: event %d references warp slot %d", i, wslot))
			case fe.at <= s.cycle:
				st.Fail(fmt.Errorf("sm: event %d fires at cycle %d, not after restore cycle %d", i, fe.at, s.cycle))
			}
			if st.Err() != nil {
				s.wheel.release(ev)
				return
			}
			ev.kind = evKind(kind)
			if wslot >= 0 {
				ev.w = s.warps[wslot]
			}
			s.wheel.schedule(s.cycle, fe.at, ev)
		}
	}
}

// captureState walks the capture maps (RegSnapshots, Traces) in
// ascending warp-key order.
func (s *SM) captureState(st *snap.State) {
	code := s.kernel.Program.Code
	if st.Loading() {
		s.RegSnapshots = make(map[[2]int][]core.Value)
		s.Traces = make(map[[2]int][]*isa.Instruction)
	}
	keys := sortedKeys(s.RegSnapshots, warpKeyCmp)
	n := len(keys)
	st.Count(&n, 8+8+4) // key, value count
	if st.Loading() {
		keys = make([][2]int, n)
	}
	for _, k := range keys {
		vals := s.RegSnapshots[k]
		st.Int(&k[0])
		st.Int(&k[1])
		nv := len(vals)
		st.Count(&nv, core.ValueBytes)
		if st.Loading() {
			vals = make([]core.Value, nv)
			s.RegSnapshots[k] = vals
		}
		for j := range vals {
			st.Words(vals[j][:])
		}
	}
	keys = sortedKeys(s.Traces, warpKeyCmp)
	n = len(keys)
	st.Count(&n, 8+8+4) // key, pc count
	if st.Loading() {
		keys = make([][2]int, n)
	}
	for _, k := range keys {
		insts := s.Traces[k]
		st.Int(&k[0])
		st.Int(&k[1])
		ni := len(insts)
		st.Count(&ni, 8) // pc
		if st.Loading() {
			insts = make([]*isa.Instruction, ni)
			s.Traces[k] = insts
		}
		for j := range insts {
			pc := -1
			if insts[j] != nil {
				pc = insts[j].PC
			}
			st.Int(&pc)
			if st.Loading() {
				if pc < 0 || pc >= len(code) {
					st.Fail(fmt.Errorf("sm: trace pc %d out of range", pc))
					return
				}
				insts[j] = &code[pc]
			}
		}
	}
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, less)
	return keys
}

// warpKeyCmp orders capture-map keys (ctaID, warpInCTA).
func warpKeyCmp(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) }
