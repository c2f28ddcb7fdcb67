package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"bow/internal/core"
	"bow/internal/isa"
	"bow/internal/mem"
	"bow/internal/regfile"
	"bow/internal/snap"
)

// This file serializes one SM's complete pipeline state (DESIGN.md
// §10). The pointer graph — in-flight instruction records referenced by
// collectors, the ready list, timing-wheel events, and register-file
// read sinks — is flattened through a dense in-flight ID table built by
// a deterministic walk: collectors in warp-slot order first, then
// event-only records (dispatched instructions awaiting completion) in
// wheel-firing order. Free lists and scratch buffers (wheel free list,
// freeInflights, segScratch, the scheduler ranking buffer) are derived
// state: they are rebuilt empty on restore, which is architecturally
// indistinguishable from the recycled-but-stale records a cold run
// carries, because every consumer overwrites a record before reading
// it. Indexes over restored state (the active list, issue states and
// masks, the port worklist, the open occupancy runs) are rebuilt from
// it at the end of LoadState. The snapshot's caller flushes the
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

// SaveState serializes the run statistics, including the residency
// histograms.
func (r *RunStats) SaveState(enc *snap.Encoder) {
	enc.I64(r.Cycles)
	enc.I64(r.Issued)
	enc.I64(r.Executed)
	enc.I64(r.CTAsRetired)
	enc.I64(r.ScoreboardStalls)
	enc.I64(r.FUStalls)
	enc.I64(r.Divergences)
	enc.I64(r.MemTransactions)
	enc.I64(r.TotalInstCycles)
	enc.I64(r.OCStageCycles)
	enc.I64(r.MemInsts)
	enc.I64(r.MemTotalCycles)
	enc.I64(r.MemOCCycles)
	enc.I64(r.NonMemInsts)
	enc.I64(r.NonMemTotalCycles)
	enc.I64(r.NonMemOCCycles)
	for _, v := range r.WritebacksByHint {
		enc.I64(v)
	}
	for _, h := range []interface {
		SaveState(*snap.Encoder)
	}{r.OccupancyBOC, r.OccupancyOCU, r.SrcOperands} {
		enc.Bool(h != nil)
	}
	if r.OccupancyBOC != nil {
		r.OccupancyBOC.SaveState(enc)
	}
	if r.OccupancyOCU != nil {
		r.OccupancyOCU.SaveState(enc)
	}
	if r.SrcOperands != nil {
		r.SrcOperands.SaveState(enc)
	}
}

// LoadState restores run statistics written by SaveState.
func (r *RunStats) LoadState(dec *snap.Decoder) {
	r.Cycles = dec.I64()
	r.Issued = dec.I64()
	r.Executed = dec.I64()
	r.CTAsRetired = dec.I64()
	r.ScoreboardStalls = dec.I64()
	r.FUStalls = dec.I64()
	r.Divergences = dec.I64()
	r.MemTransactions = dec.I64()
	r.TotalInstCycles = dec.I64()
	r.OCStageCycles = dec.I64()
	r.MemInsts = dec.I64()
	r.MemTotalCycles = dec.I64()
	r.MemOCCycles = dec.I64()
	r.NonMemInsts = dec.I64()
	r.NonMemTotalCycles = dec.I64()
	r.NonMemOCCycles = dec.I64()
	for i := range r.WritebacksByHint {
		r.WritebacksByHint[i] = dec.I64()
	}
	hasBOC, hasOCU, hasSrc := dec.Bool(), dec.Bool(), dec.Bool()
	if hasBOC {
		if r.OccupancyBOC == nil {
			dec.Fail(fmt.Errorf("sm: snapshot has OccupancyBOC, target histogram is nil"))
			return
		}
		r.OccupancyBOC.LoadState(dec)
	}
	if hasOCU {
		if r.OccupancyOCU == nil {
			dec.Fail(fmt.Errorf("sm: snapshot has OccupancyOCU, target histogram is nil"))
			return
		}
		r.OccupancyOCU.LoadState(dec)
	}
	if hasSrc {
		if r.SrcOperands == nil {
			dec.Fail(fmt.Errorf("sm: snapshot has SrcOperands, target histogram is nil"))
			return
		}
		r.SrcOperands.LoadState(dec)
	}
}

// SaveState serializes the SM's complete pipeline state. The snapshot
// must be taken at a device-cycle boundary (after Cycle returns): the
// current cycle's wheel slot is then drained and every pending event
// fires strictly in the future.
func (s *SM) SaveState(enc *snap.Encoder) {
	if s.ref {
		enc.Fail(fmt.Errorf("sm %d: reference-loop state is not snapshottable", s.id))
		return
	}
	numRegs := s.kernel.Program.NumRegs()

	// Build the in-flight ID table: collectors first (warp-slot order,
	// issue order within a warp), then event-only records (dispatched,
	// completion pending) in wheel order.
	var flights []*inflight
	ids := make(map[*inflight]int32)
	intern := func(f *inflight) {
		if f == nil {
			return
		}
		if _, ok := ids[f]; ok {
			return
		}
		ids[f] = int32(len(flights))
		flights = append(flights, f)
	}
	for _, w := range s.warps {
		for _, f := range w.collectors {
			intern(f)
		}
	}
	if s.wheel.slots[s.cycle&s.wheel.mask].head != nil {
		enc.Fail(fmt.Errorf("sm %d: wheel slot for cycle %d not drained (snapshot requires a cycle boundary)", s.id, s.cycle))
		return
	}
	type schedEvent struct {
		at int64
		ev *event
	}
	var events []schedEvent
	for d := int64(1); d <= s.wheel.mask; d++ {
		at := s.cycle + d
		for ev := s.wheel.slots[at&s.wheel.mask].head; ev != nil; ev = ev.next {
			events = append(events, schedEvent{at: at, ev: ev})
			intern(ev.f)
		}
	}
	for _, fe := range s.wheel.far {
		events = append(events, schedEvent{at: fe.at, ev: fe.ev})
		intern(fe.ev.f)
	}

	enc.I64(s.cycle)
	s.st.SaveState(enc)
	enc.Int(s.freeWarpSlots)
	enc.Int(s.freeTBSlots)

	// In-flight records. Instruction pointers serialize as program
	// counters; warp pointers as slot numbers.
	enc.U32(uint32(len(flights)))
	for _, f := range flights {
		enc.Int(f.in.PC)
		enc.Int(f.warp.slot)
		enc.I64(f.seq)
		enc.U32(f.execMask)
		enc.I64(f.issueCycle)
		enc.I64(f.collectCycle)
		enc.I64(f.dispatchCycle)
		for i := range f.srcVals {
			enc.Words(f.srcVals[i][:])
		}
		enc.Words(f.oldDst[:])
		enc.U32(f.predSrc)
		enc.Int(f.outstanding)
		enc.Bool(f.ready)
		enc.U8(f.delivLen)
		for j := uint8(0); j < f.delivLen; j++ {
			d := &f.deliv[(f.delivHead+j)%uint8(len(f.deliv))]
			enc.U8(d.slots)
			enc.Words(d.val[:])
		}
	}

	// Warp contexts, slot order. The active list is derived (resident and
	// not done) and rebuilt on restore.
	enc.Int(len(s.warps))
	for _, w := range s.warps {
		enc.Int(w.ctaID)
		enc.Int(w.warpInCTA)
		enc.Bool(w.done)
		enc.Bool(w.stalled)
		enc.Bool(w.atBarrier)
		enc.I64(w.issued)
		for _, p := range w.preds {
			enc.U32(p)
		}
		enc.U32(uint32(len(w.stack)))
		for _, fr := range w.stack {
			enc.Int(fr.pc)
			enc.Int(fr.rpc)
			enc.U32(fr.mask)
		}
		enc.U32(uint32(len(w.collectors)))
		for _, f := range w.collectors {
			enc.I32(ids[f])
		}
		enc.U32(uint32(len(w.fillWaiters)))
		for _, fw := range w.fillWaiters {
			enc.U8(fw.reg)
			enc.I32(ids[fw.f])
		}
	}

	// Resident CTAs, ascending id.
	ctaIDs := make([]int, 0, len(s.ctas))
	for id := range s.ctas {
		ctaIDs = append(ctaIDs, id)
	}
	sort.Ints(ctaIDs)
	enc.U32(uint32(len(ctaIDs)))
	for _, id := range ctaIDs {
		cta := s.ctas[id]
		enc.Int(cta.ctaID)
		enc.U32(uint32(len(cta.warps)))
		for _, slot := range cta.warps {
			enc.Int(slot)
		}
		enc.Int(cta.arrived)
		enc.Int(cta.liveWarp)
		cta.shared.SaveState(enc)
	}

	// Dispatch-ordered ready list, head to tail.
	var readyCount uint32
	for f := s.readyHead; f != nil; f = f.rnext {
		readyCount++
	}
	enc.U32(readyCount)
	for f := s.readyHead; f != nil; f = f.rnext {
		enc.I32(ids[f])
	}

	// Timing wheel: every pending event with its absolute fire cycle, in
	// firing order (ascending cycle, chain order within a cycle), then
	// far-horizon events in their parking order.
	enc.U32(uint32(len(events)))
	for _, se := range events {
		ev := se.ev
		enc.I64(se.at)
		fid := int32(-1)
		if ev.f != nil {
			fid = ids[ev.f]
		}
		enc.I32(fid)
		wslot := -1
		if ev.w != nil {
			wslot = ev.w.slot
		}
		enc.Int(wslot)
		enc.U8(uint8(ev.kind))
		enc.Bool(ev.isLoad)
		enc.U8(ev.reg)
		enc.U32(ev.mask)
		enc.U32(ev.predOut)
		enc.Words(ev.result[:])
	}

	s.sb.SaveState(enc)
	enc.Int(len(s.scheds))
	for _, sc := range s.scheds {
		sc.SaveState(enc)
	}
	for _, eng := range s.engines {
		eng.SaveState(enc)
	}
	s.rf.SaveState(enc, numRegs, func(sink regfile.ReadSink) (int32, error) {
		f, ok := sink.(*inflight)
		if !ok {
			return -1, fmt.Errorf("sm: unknown read-sink type %T", sink)
		}
		id, ok := ids[f]
		if !ok {
			return -1, fmt.Errorf("sm: read sink not in the in-flight table")
		}
		return id, nil
	})
	s.hier.L1.SaveState(enc)

	s.saveCaptureMaps(enc)
}

func warpKeyLess(keys [][2]int) func(i, j int) bool {
	return func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	}
}

func (s *SM) saveCaptureMaps(enc *snap.Encoder) {
	regKeys := make([][2]int, 0, len(s.RegSnapshots))
	for k := range s.RegSnapshots {
		regKeys = append(regKeys, k)
	}
	sort.Slice(regKeys, warpKeyLess(regKeys))
	enc.U32(uint32(len(regKeys)))
	for _, k := range regKeys {
		enc.Int(k[0])
		enc.Int(k[1])
		vals := s.RegSnapshots[k]
		enc.U32(uint32(len(vals)))
		for i := range vals {
			enc.Words(vals[i][:])
		}
	}
	trKeys := make([][2]int, 0, len(s.Traces))
	for k := range s.Traces {
		trKeys = append(trKeys, k)
	}
	sort.Slice(trKeys, warpKeyLess(trKeys))
	enc.U32(uint32(len(trKeys)))
	for _, k := range trKeys {
		enc.Int(k[0])
		enc.Int(k[1])
		insts := s.Traces[k]
		enc.U32(uint32(len(insts)))
		for _, in := range insts {
			enc.Int(in.PC)
		}
	}
}

// inflightMinBytes is the encoded size of an in-flight record with an
// empty delivery ring: pc, slot, seq, execMask, three cycle stamps, the
// source and old-destination values, predSrc, outstanding, ready, and
// the ring length.
const inflightMinBytes = 8 + 8 + 8 + 4 + 3*8 + (isa.MaxSrcOperands+1)*core.ValueBytes + 4 + 8 + 1 + 1

// LoadState restores pipeline state written by SaveState into a freshly
// constructed SM of the same configuration (same kernel, chip config,
// and scheduler partitioning).
func (s *SM) LoadState(dec *snap.Decoder) {
	if s.ref {
		dec.Fail(fmt.Errorf("sm %d: cannot restore into a reference-loop SM", s.id))
		return
	}
	code := s.kernel.Program.Code

	s.cycle = dec.I64()
	s.st.LoadState(dec)
	s.freeWarpSlots = dec.Int()
	s.freeTBSlots = dec.Int()

	n := dec.Count(inflightMinBytes)
	if dec.Err() != nil {
		return
	}
	flights := make([]*inflight, n)
	for i := range flights {
		pc := dec.Int()
		slot := dec.Int()
		if dec.Err() != nil {
			return
		}
		if pc < 0 || pc >= len(code) || slot < 0 || slot >= len(s.warps) {
			dec.Fail(fmt.Errorf("sm: in-flight record %d: pc=%d slot=%d out of range", i, pc, slot))
			return
		}
		f := s.allocInflight()
		f.in = &code[pc]
		f.warp = s.warps[slot]
		f.seq = dec.I64()
		f.execMask = dec.U32()
		f.issueCycle = dec.I64()
		f.collectCycle = dec.I64()
		f.dispatchCycle = dec.I64()
		for j := range f.srcVals {
			dec.WordsInto(f.srcVals[j][:])
		}
		dec.WordsInto(f.oldDst[:])
		f.predSrc = dec.U32()
		f.outstanding = dec.Int()
		f.ready = dec.Bool()
		f.delivHead = 0
		f.delivLen = dec.U8()
		if int(f.delivLen) > len(f.deliv) {
			dec.Fail(fmt.Errorf("sm: in-flight record %d: delivery ring length %d", i, f.delivLen))
			return
		}
		for j := uint8(0); j < f.delivLen; j++ {
			f.deliv[j].slots = dec.U8()
			dec.WordsInto(f.deliv[j].val[:])
		}
		if dec.Err() != nil {
			return
		}
		flights[i] = f
	}
	byID := func(id int32) (*inflight, error) {
		if id < 0 {
			return nil, nil
		}
		if int(id) >= len(flights) {
			return nil, fmt.Errorf("sm: in-flight id %d out of range", id)
		}
		return flights[id], nil
	}
	mustByID := func(id int32) *inflight {
		f, err := byID(id)
		if err != nil {
			dec.Fail(err)
			return nil
		}
		if f == nil && dec.Err() == nil {
			dec.Fail(fmt.Errorf("sm: unexpected nil in-flight reference"))
		}
		return f
	}

	wn := dec.Int()
	if dec.Err() != nil {
		return
	}
	if wn != len(s.warps) {
		dec.Fail(fmt.Errorf("sm: snapshot has %d warp slots, target has %d", wn, len(s.warps)))
		return
	}
	for i := range s.active {
		s.active[i] = nil
	}
	s.active = s.active[:0]
	for _, w := range s.warps {
		w.activeIdx = -1
		w.ctaID = dec.Int()
		w.warpInCTA = dec.Int()
		w.done = dec.Bool()
		w.stalled = dec.Bool()
		w.atBarrier = dec.Bool()
		w.issued = dec.I64()
		for p := range w.preds {
			w.preds[p] = dec.U32()
		}
		frames := dec.Count(8 + 8 + 4) // pc, rpc, mask
		if dec.Err() != nil {
			return
		}
		w.stack = w.stack[:0]
		for j := 0; j < frames; j++ {
			var fr simtEntry
			fr.pc = dec.Int()
			fr.rpc = dec.Int()
			fr.mask = dec.U32()
			w.stack = append(w.stack, fr)
		}
		nc := dec.Count(4) // in-flight id
		if dec.Err() != nil {
			return
		}
		if nc > collectorsPerWarp {
			dec.Fail(fmt.Errorf("sm: warp %d has %d collectors (max %d)", w.slot, nc, collectorsPerWarp))
			return
		}
		w.collectors = w.collectors[:0]
		for j := 0; j < nc; j++ {
			f := mustByID(dec.I32())
			if dec.Err() != nil {
				return
			}
			w.collectors = append(w.collectors, f)
		}
		nfw := dec.Count(1 + 4) // reg, in-flight id
		if dec.Err() != nil {
			return
		}
		w.fillWaiters = w.fillWaiters[:0]
		for j := 0; j < nfw; j++ {
			reg := dec.U8()
			f := mustByID(dec.I32())
			if dec.Err() != nil {
				return
			}
			w.fillWaiters = append(w.fillWaiters, fillWaiter{reg: reg, f: f})
		}
	}
	s.ctas = make(map[int]*ctaWork)
	cn := dec.Count(8 + 4 + 8 + 8 + 4) // ctaID, warp count, arrived, liveWarp, shared words
	if dec.Err() != nil {
		return
	}
	for i := 0; i < cn; i++ {
		cta := &ctaWork{ctaID: dec.Int()}
		nw := dec.Count(8) // warp slot
		if dec.Err() != nil {
			return
		}
		for j := 0; j < nw; j++ {
			slot := dec.Int()
			if dec.Err() != nil {
				return
			}
			if slot < 0 || slot >= len(s.warps) {
				dec.Fail(fmt.Errorf("sm: CTA %d references warp slot %d", cta.ctaID, slot))
				return
			}
			cta.warps = append(cta.warps, slot)
		}
		cta.arrived = dec.Int()
		cta.liveWarp = dec.Int()
		cta.shared = mem.NewShared(0)
		cta.shared.LoadState(dec)
		if dec.Err() != nil {
			return
		}
		s.ctas[cta.ctaID] = cta
	}

	s.readyHead, s.readyTail = nil, nil
	rc := dec.Count(4) // in-flight id
	var prev *inflight
	for i := 0; i < rc; i++ {
		f := mustByID(dec.I32())
		if dec.Err() != nil {
			return
		}
		f.rprev, f.rnext = prev, nil
		if prev == nil {
			s.readyHead = f
		} else {
			prev.rnext = f
		}
		s.readyTail = f
		prev = f
	}

	en := dec.Count(8 + 4 + 8 + 1 + 1 + 1 + 4 + 4 + core.ValueBytes) // at, fid, wslot, kind, isLoad, reg, mask, predOut, result
	if dec.Err() != nil {
		return
	}
	for i := 0; i < en; i++ {
		at := dec.I64()
		fid := dec.I32()
		wslot := dec.Int()
		if dec.Err() != nil {
			return
		}
		ev := s.wheel.alloc()
		f, err := byID(fid)
		if err != nil {
			s.wheel.release(ev)
			dec.Fail(err)
			return
		}
		ev.f = f
		if wslot >= 0 {
			if wslot >= len(s.warps) {
				s.wheel.release(ev)
				dec.Fail(fmt.Errorf("sm: event %d references warp slot %d", i, wslot))
				return
			}
			ev.w = s.warps[wslot]
		}
		ev.kind = evKind(dec.U8())
		ev.isLoad = dec.Bool()
		ev.reg = dec.U8()
		ev.mask = dec.U32()
		ev.predOut = dec.U32()
		dec.WordsInto(ev.result[:])
		if dec.Err() != nil {
			s.wheel.release(ev)
			return
		}
		if at <= s.cycle {
			s.wheel.release(ev)
			dec.Fail(fmt.Errorf("sm: event %d fires at cycle %d, not after restore cycle %d", i, at, s.cycle))
			return
		}
		s.wheel.schedule(s.cycle, at, ev)
	}

	s.sb.LoadState(dec)
	sn := dec.Int()
	if dec.Err() != nil {
		return
	}
	if sn != len(s.scheds) {
		dec.Fail(fmt.Errorf("sm: snapshot has %d schedulers, target has %d", sn, len(s.scheds)))
		return
	}
	for _, sc := range s.scheds {
		sc.LoadState(dec)
	}
	for _, eng := range s.engines {
		eng.LoadState(dec)
	}
	s.rf.LoadState(dec, func(id int32) (regfile.ReadSink, error) {
		f, err := byID(id)
		if err != nil {
			return nil, err
		}
		if f == nil {
			return nil, fmt.Errorf("sm: nil read sink in register file queue")
		}
		return f, nil
	})
	s.hier.L1.LoadState(dec)

	s.loadCaptureMaps(dec)
	if dec.Err() != nil {
		return
	}

	// Derived state. The active list is rebuilt in slot order. Order is
	// immaterial to the simulation (see activeAdd) but slot order keeps
	// restored state canonical: a second snapshot of the restored SM is
	// byte-identical. It is rebuilt after the engines are loaded, so
	// activeAdd opens each warp's occupancy run at the restored
	// occupancy; the snapshot's histogram was flushed up to this cycle.
	// Issue states restart without blocked verdicts: a blocked slot
	// restores as a candidate whose first scan re-asks the scoreboard
	// and gets the same answer. The port worklist holds every collector
	// with a buffered delivery or, all operands forwarded, not yet ready.
	s.busyCollectors = 0
	clear(s.portq)
	s.portq = s.portq[:0]
	for _, w := range s.warps {
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

func (s *SM) loadCaptureMaps(dec *snap.Decoder) {
	code := s.kernel.Program.Code
	s.RegSnapshots = make(map[[2]int][]core.Value)
	rn := dec.Count(8 + 8 + 4) // key, value count
	if dec.Err() != nil {
		return
	}
	for i := 0; i < rn; i++ {
		key := [2]int{dec.Int(), dec.Int()}
		nv := dec.Count(core.ValueBytes)
		if dec.Err() != nil {
			return
		}
		vals := make([]core.Value, nv)
		for j := range vals {
			dec.WordsInto(vals[j][:])
		}
		if dec.Err() != nil {
			return
		}
		s.RegSnapshots[key] = vals
	}
	s.Traces = make(map[[2]int][]*isa.Instruction)
	tn := dec.Count(8 + 8 + 4) // key, pc count
	if dec.Err() != nil {
		return
	}
	for i := 0; i < tn; i++ {
		key := [2]int{dec.Int(), dec.Int()}
		ni := dec.Count(8) // pc
		if dec.Err() != nil {
			return
		}
		insts := make([]*isa.Instruction, ni)
		for j := range insts {
			pc := dec.Int()
			if dec.Err() != nil {
				return
			}
			if pc < 0 || pc >= len(code) {
				dec.Fail(fmt.Errorf("sm: trace pc %d out of range", pc))
				return
			}
			insts[j] = &code[pc]
		}
		s.Traces[key] = insts
	}
}
