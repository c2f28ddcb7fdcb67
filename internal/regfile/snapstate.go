package regfile

import (
	"fmt"

	"bow/internal/core"
	"bow/internal/snap"
)

// SinkResolver maps a queued read's sink to a stable integer id for
// serialization. The SM implements it over its in-flight instruction
// table (sinks are operand collectors). id -1 encodes a nil sink.
type SinkResolver func(sink ReadSink) (int32, error)

// SinkLookup is the inverse mapping used on restore.
type SinkLookup func(id int32) (ReadSink, error)

// SaveState serializes the register file: cycle counter, stats, values
// for the first numRegs registers of every warp (registers above the
// program's register count are never written and stay zero), per-bank
// read/write queues in FIFO order, and the crossbar delay line.
//
// Queued reads carrying a ReadCallback closure cannot be serialized:
// closures are test-only plumbing, and the error keeps a checkpoint
// from silently dropping a pending delivery.
func (f *File) SaveState(enc *snap.Encoder, numRegs int, sinkID SinkResolver) {
	if numRegs < 0 || numRegs > 256 {
		enc.Fail(fmt.Errorf("regfile: numRegs %d out of range", numRegs))
		return
	}
	enc.I64(f.cycle)
	enc.I64(f.stats.Reads)
	enc.I64(f.stats.Writes)
	enc.I64(f.stats.BankConflicts)
	enc.Int(numRegs)
	enc.Int(len(f.vals))
	for w := range f.vals {
		for r := 0; r < numRegs; r++ {
			enc.Words(f.vals[w][r][:])
		}
	}
	resolve := func(cb ReadCallback, sink ReadSink) int32 {
		if cb != nil {
			enc.Fail(fmt.Errorf("regfile: cannot snapshot a queued closure read (use EnqueueReadSink)"))
			return -1
		}
		if sink == nil {
			return -1
		}
		id, err := sinkID(sink)
		if err != nil {
			enc.Fail(fmt.Errorf("regfile: unresolvable read sink: %w", err))
			return -1
		}
		return id
	}
	enc.Int(len(f.banks))
	for i := range f.banks {
		bk := &f.banks[i]
		enc.U32(uint32(bk.reads.n))
		for j := 0; j < bk.reads.n; j++ {
			req := &bk.reads.buf[(bk.reads.head+j)%len(bk.reads.buf)]
			id := resolve(req.cb, req.sink)
			enc.I32(req.warp)
			enc.U8(req.reg)
			enc.I64(req.queued)
			enc.I32(id)
		}
		enc.U32(uint32(bk.writes.n))
		for j := 0; j < bk.writes.n; j++ {
			req := &bk.writes.buf[(bk.writes.head+j)%len(bk.writes.buf)]
			enc.I32(req.warp)
			enc.U8(req.reg)
			enc.I64(req.queued)
			enc.Words(req.val[:])
		}
	}
	enc.U32(uint32(f.delay.n))
	for j := 0; j < f.delay.n; j++ {
		sr := &f.delay.buf[(f.delay.head+j)%len(f.delay.buf)]
		id := resolve(sr.cb, sr.sink)
		enc.I64(sr.readyAt)
		enc.U8(sr.reg)
		enc.Words(sr.val[:])
		enc.I32(id)
	}
}

// LoadState restores register file state written by SaveState into a
// file of the same geometry. Queues are rebuilt in FIFO order and the
// busy-bank bitmap is rederived.
func (f *File) LoadState(dec *snap.Decoder, sink SinkLookup) {
	f.cycle = dec.I64()
	f.stats.Reads = dec.I64()
	f.stats.Writes = dec.I64()
	f.stats.BankConflicts = dec.I64()
	numRegs := dec.Int()
	warps := dec.Int()
	if dec.Err() != nil {
		return
	}
	if numRegs < 0 || numRegs > 256 || warps != len(f.vals) {
		dec.Fail(fmt.Errorf("regfile: snapshot geometry numRegs=%d warps=%d, target warps=%d",
			numRegs, warps, len(f.vals)))
		return
	}
	for w := range f.vals {
		for r := range f.vals[w] {
			f.vals[w][r] = core.Value{}
		}
		for r := 0; r < numRegs; r++ {
			dec.WordsInto(f.vals[w][r][:])
		}
	}
	lookup := func(id int32) ReadSink {
		if id < 0 {
			return nil
		}
		s, err := sink(id)
		if err != nil {
			dec.Fail(fmt.Errorf("regfile: bad read-sink id %d: %w", id, err))
			return nil
		}
		return s
	}
	nbanks := dec.Int()
	if dec.Err() != nil {
		return
	}
	if nbanks != len(f.banks) {
		dec.Fail(fmt.Errorf("regfile: snapshot has %d banks, target has %d", nbanks, len(f.banks)))
		return
	}
	for i := range f.nonempty {
		f.nonempty[i] = 0
	}
	for i := range f.banks {
		bk := &f.banks[i]
		bk.reads = readRing{}
		bk.writes = writeRing{}
		nr := dec.Count(4 + 1 + 8 + 4) // warp, reg, queued, sink id
		for j := 0; j < nr; j++ {
			var req readReq
			req.warp = dec.I32()
			req.reg = dec.U8()
			req.queued = dec.I64()
			req.sink = lookup(dec.I32())
			if dec.Err() != nil {
				return
			}
			bk.reads.push(req)
		}
		nw := dec.Count(4 + 1 + 8 + core.ValueBytes) // warp, reg, queued, value
		for j := 0; j < nw; j++ {
			sl := bk.writes.pushSlot()
			sl.warp = dec.I32()
			sl.reg = dec.U8()
			sl.queued = dec.I64()
			dec.WordsInto(sl.val[:])
			if dec.Err() != nil {
				return
			}
		}
		if bk.pending() > 0 {
			f.markBusy(i)
		}
	}
	f.delay = servedRing{}
	nd := dec.Count(8 + 1 + core.ValueBytes + 4) // readyAt, reg, value, sink id
	for j := 0; j < nd; j++ {
		sl := f.delay.pushSlot()
		sl.readyAt = dec.I64()
		sl.reg = dec.U8()
		dec.WordsInto(sl.val[:])
		sl.cb = nil
		sl.sink = lookup(dec.I32())
		if dec.Err() != nil {
			return
		}
	}
}
