package core

import (
	"fmt"

	"bow/internal/isa"
	"bow/internal/snap"
)

// State walks the stats block.
func (s *Stats) State(st *snap.State) {
	for _, v := range [...]*int64{
		&s.Instructions, &s.RFReads, &s.BypassedRead, &s.RFWrites,
		&s.CoalescedWrites, &s.DroppedTransient, &s.FlushDropped, &s.CapacityEvicts,
		&s.BOCReads, &s.BOCWrites, &s.LastUseFrees, &s.IntervalDrains,
		&s.CompressedReads, &s.CompressedWrites,
	} {
		st.I64(v)
	}
	for i := range s.RFWritesByReg {
		st.I64(&s.RFWritesByReg[i])
	}
	for i := range s.RFWriteCauses {
		st.I64(&s.RFWriteCauses[i])
	}
}

// State walks the window: sequence counter, prefetch interval, stats,
// and the live entries in insertion order. The free list and the byReg
// index are derived state and are rebuilt on load.
//
// The target of a load may be configured differently from the source
// (a baseline snapshot restored into a bypassing configuration): that
// is accepted exactly when the serialized window is empty, because an
// empty window is a valid state of every configuration. A non-empty
// window only restores into a configuration that can hold it.
func (e *Engine) State(st *snap.State) {
	interval := int64(e.interval)
	st.I64(&e.seq)
	st.I64(&interval)
	e.interval = int32(interval)
	e.stats.State(st)
	n := len(e.live)
	st.Count(&n, 1+ValueBytes+8+4) // reg, value, lastAccess, dirty, hint, cancelWB, pending
	if st.Loading() {
		if st.Err() != nil {
			return
		}
		for _, en := range e.live {
			e.byReg[en.reg] = nil
			e.release(en)
		}
		e.live = e.live[:0]
		if n > 0 && !e.cfg.Policy.Bypassing() {
			st.Fail(fmt.Errorf("core: snapshot has %d window entries but target policy %v buffers nothing", n, e.cfg.Policy))
			return
		}
		if n > e.cfg.Capacity {
			st.Fail(fmt.Errorf("core: snapshot has %d window entries, target capacity is %d", n, e.cfg.Capacity))
			return
		}
	}
	for i := range n {
		var en *entry
		if st.Loading() {
			en = e.allocEntry()
		} else {
			en = e.live[i]
		}
		hint := uint8(en.hint)
		st.U8(&en.reg)
		st.Words(en.val[:])
		st.I64(&en.lastAccess)
		st.Bool(&en.dirty)
		st.U8(&hint)
		en.hint = isa.WritebackHint(hint)
		st.Bool(&en.cancelWB)
		st.Bool(&en.pending)
		if st.Loading() {
			if st.Err() != nil {
				e.release(en)
				return
			}
			e.attach(en.reg, en)
		}
	}
}
