package core

import (
	"fmt"

	"bow/internal/isa"
	"bow/internal/snap"
)

// SaveState serializes the stats block.
func (s *Stats) SaveState(enc *snap.Encoder) {
	enc.I64(s.Instructions)
	enc.I64(s.RFReads)
	enc.I64(s.BypassedRead)
	enc.I64(s.RFWrites)
	enc.I64(s.CoalescedWrites)
	enc.I64(s.DroppedTransient)
	enc.I64(s.FlushDropped)
	enc.I64(s.CapacityEvicts)
	enc.I64(s.BOCReads)
	enc.I64(s.BOCWrites)
	enc.I64(s.LastUseFrees)
	enc.I64(s.IntervalDrains)
	enc.I64(s.CompressedReads)
	enc.I64(s.CompressedWrites)
	for _, v := range s.RFWritesByReg {
		enc.I64(v)
	}
	for _, v := range s.RFWriteCauses {
		enc.I64(v)
	}
}

// LoadState restores a stats block written by SaveState.
func (s *Stats) LoadState(dec *snap.Decoder) {
	s.Instructions = dec.I64()
	s.RFReads = dec.I64()
	s.BypassedRead = dec.I64()
	s.RFWrites = dec.I64()
	s.CoalescedWrites = dec.I64()
	s.DroppedTransient = dec.I64()
	s.FlushDropped = dec.I64()
	s.CapacityEvicts = dec.I64()
	s.BOCReads = dec.I64()
	s.BOCWrites = dec.I64()
	s.LastUseFrees = dec.I64()
	s.IntervalDrains = dec.I64()
	s.CompressedReads = dec.I64()
	s.CompressedWrites = dec.I64()
	for i := range s.RFWritesByReg {
		s.RFWritesByReg[i] = dec.I64()
	}
	for i := range s.RFWriteCauses {
		s.RFWriteCauses[i] = dec.I64()
	}
}

// SaveState serializes the window: sequence counter, stats, and the
// live entries in insertion order. The free list and the byReg index
// are derived state and are rebuilt on load.
func (e *Engine) SaveState(enc *snap.Encoder) {
	enc.I64(e.seq)
	enc.I64(int64(e.interval))
	e.stats.SaveState(enc)
	enc.U32(uint32(len(e.live)))
	for _, en := range e.live {
		enc.U8(en.reg)
		enc.Words(en.val[:])
		enc.I64(en.lastAccess)
		enc.Bool(en.dirty)
		enc.U8(uint8(en.hint))
		enc.Bool(en.cancelWB)
		enc.Bool(en.pending)
	}
}

// LoadState restores a window written by SaveState. The target engine
// may be configured differently from the source (a baseline snapshot
// restored into a bypassing configuration): that is accepted
// exactly when the serialized window is empty, because an empty window
// is a valid state of every configuration. A non-empty window only
// restores into a configuration that can hold it.
func (e *Engine) LoadState(dec *snap.Decoder) {
	e.seq = dec.I64()
	e.interval = int32(dec.I64())
	e.stats.LoadState(dec)
	// reg, value, lastAccess, dirty, hint, cancelWB, pending.
	n := dec.Count(1 + ValueBytes + 8 + 4)
	if dec.Err() != nil {
		return
	}
	// Drop current live entries before repopulating.
	for _, en := range e.live {
		e.byReg[en.reg] = nil
		e.release(en)
	}
	e.live = e.live[:0]
	if n > 0 {
		if !e.cfg.Policy.Bypassing() {
			dec.Fail(fmt.Errorf("core: snapshot has %d window entries but target policy %v buffers nothing", n, e.cfg.Policy))
			return
		}
		if n > e.cfg.Capacity {
			dec.Fail(fmt.Errorf("core: snapshot has %d window entries, target capacity is %d", n, e.cfg.Capacity))
			return
		}
	}
	for i := 0; i < n; i++ {
		reg := dec.U8()
		en := e.allocEntry()
		dec.WordsInto(en.val[:])
		en.lastAccess = dec.I64()
		en.dirty = dec.Bool()
		en.hint = isa.WritebackHint(dec.U8())
		en.cancelWB = dec.Bool()
		en.pending = dec.Bool()
		if dec.Err() != nil {
			e.release(en)
			return
		}
		e.attach(reg, en)
	}
}

// SaveState serializes one warp-wide value.
func (v *Value) SaveState(enc *snap.Encoder) { enc.Words(v[:]) }

// LoadState restores one warp-wide value.
func (v *Value) LoadState(dec *snap.Decoder) { dec.WordsInto(v[:]) }
