package regfile

import (
	"fmt"

	"bow/internal/core"
	"bow/internal/snap"
)

// SinkRef walks one queued read's sink through st as a stable integer
// id. The SM implements it over its in-flight instruction table (sinks
// are operand collectors).
type SinkRef func(st *snap.State, sink *ReadSink)

// State walks the register file: cycle counter, stats, values for the
// first numRegs registers of every warp (registers above the program's
// register count are never written and stay zero), per-bank read and
// write queues in FIFO order, and the crossbar delay line. A load
// takes numRegs from the snapshot, checks the geometry against the
// target, rebuilds the queues in FIFO order and rederives the
// busy-bank bitmap.
func (f *File) State(st *snap.State, numRegs int, sink SinkRef) {
	warps, nbanks := len(f.vals), len(f.banks)
	st.I64(&f.cycle)
	st.I64(&f.stats.Reads)
	st.I64(&f.stats.Writes)
	st.I64(&f.stats.BankConflicts)
	st.Int(&numRegs)
	st.Int(&warps)
	if numRegs < 0 || numRegs > 256 || warps != len(f.vals) {
		st.Fail(fmt.Errorf("regfile: snapshot geometry numRegs=%d warps=%d, target warps=%d",
			numRegs, warps, len(f.vals)))
		return
	}
	for _, regs := range f.vals {
		if st.Loading() {
			clear(regs)
		}
		for r := range regs[:numRegs] {
			st.Words(regs[r][:])
		}
	}
	st.Int(&nbanks)
	if nbanks != len(f.banks) {
		st.Fail(fmt.Errorf("regfile: snapshot has %d banks, target has %d", nbanks, len(f.banks)))
		return
	}
	if st.Loading() {
		clear(f.nonempty)
	}
	for i := range f.banks {
		bk := &f.banks[i]
		n := bk.reads.n
		st.Count(&n, 4+1+8+4) // warp, reg, queued, sink id
		if st.Loading() {
			bk.reads = readRing{buf: make([]readReq, n), n: n}
		}
		for j := range n {
			req := &bk.reads.buf[(bk.reads.head+j)%len(bk.reads.buf)]
			st.I32(&req.warp)
			st.U8(&req.reg)
			st.I64(&req.queued)
			sink(st, &req.sink)
		}
		n = bk.writes.n
		st.Count(&n, 4+1+8+core.ValueBytes) // warp, reg, queued, value
		if st.Loading() {
			bk.writes = writeRing{buf: make([]writeReq, n), n: n}
		}
		for j := range n {
			req := &bk.writes.buf[(bk.writes.head+j)%len(bk.writes.buf)]
			st.I32(&req.warp)
			st.U8(&req.reg)
			st.I64(&req.queued)
			st.Words(req.val[:])
		}
		if st.Loading() && bk.pending() > 0 {
			f.markBusy(i)
		}
	}
	n := f.delay.n
	st.Count(&n, 8+1+core.ValueBytes+4) // readyAt, reg, value, sink id
	if st.Loading() {
		f.delay = servedRing{buf: make([]servedRead, n), n: n}
	}
	for j := range n {
		sr := &f.delay.buf[(f.delay.head+j)%len(f.delay.buf)]
		st.I64(&sr.readyAt)
		st.U8(&sr.reg)
		st.Words(sr.val[:])
		sink(st, &sr.sink)
	}
}
