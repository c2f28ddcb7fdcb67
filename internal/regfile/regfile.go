// Package regfile models the banked GPU register file of Fig. 2: 32
// single-ported banks per SM, each holding 64 warp-registers of 128
// bytes (32 lanes × 32 bits). Requests to the same bank in the same
// cycle serialize (bank conflict); writes have priority over reads, as
// in GPGPU-Sim's operand-collector model.
//
// The register file is both the functional value store (warp-register
// values live here) and the timing model (per-bank request queues
// drained one per cycle). The hot path is allocation-free and
// copy-light in steady state: per-bank queues are ring buffers that
// reuse their backing storage, read requests carry no value payload
// (only writes do, and those are written into the ring slot in place),
// reads deliver through a typed sink (no closure per request), and
// idle banks cost nothing — a bank bitmap tracks which queues are
// nonempty. Write priority is O(1): reads and writes queue separately
// per bank, so "first write, else head read" is two head probes instead
// of a scan.
package regfile

import (
	"fmt"
	"math/bits"

	"bow/internal/core"
)

// Config sizes the register file.
type Config struct {
	NumBanks     int // banks per SM (Pascal: 32)
	WarpRegsPerB int // warp-register entries per bank (Pascal: 64)
	MaxWarps     int // hardware warp contexts per SM (Pascal: 32)
	// AccessLatency is the depth of the read pipeline between the bank
	// port and the collector: request arbitration, bank access, and the
	// crossbar each take a stage. A read delivers its value this many
	// cycles after winning its bank's port. Forwarded (bypassed)
	// operands skip the whole pipeline — that asymmetry is where BOW's
	// performance comes from.
	AccessLatency int
}

// DefaultConfig is the TITAN X Pascal register file: 256 KB per SM with
// a 3-stage read pipeline (arbitrate, access, crossbar).
func DefaultConfig() Config {
	return Config{NumBanks: 32, WarpRegsPerB: 64, MaxWarps: 32, AccessLatency: 3}
}

// SizeBytes is the total storage of the configured register file.
func (c Config) SizeBytes() int {
	return c.NumBanks * c.WarpRegsPerB * 128
}

// ReadSink receives completed reads without a per-request closure: the
// SM's operand collectors implement it, so the hot simulation loop
// allocates nothing per register read. The pointed-to value is owned by
// the register file and only valid for the duration of the call — copy
// it out to retain it.
type ReadSink interface {
	DeliverRead(reg uint8, val *core.Value)
}

// readReq is a queued bank read. It carries no value payload — the
// value is read from storage at serve time — so ring operations move
// ~40 bytes, not a warp-wide register.
//
//bow:state
type readReq struct {
	warp   int32
	reg    uint8
	queued int64 // cycle the request was enqueued (conflict accounting)
	sink   ReadSink
}

// writeReq is a queued bank write; the value travels in the ring slot
// and is written into storage in place at serve time.
//
//bow:state
type writeReq struct {
	warp   int32
	reg    uint8
	queued int64
	val    core.Value
}

// readRing is a FIFO of readReq over a reusable ring buffer.
//
//bow:state
type readRing struct {
	buf  []readReq
	head int
	n    int
}

//bow:hotpath
func (r *readRing) push(req readReq) {
	if r.n == len(r.buf) {
		//bowvet:ignore hotpathalloc -- amortized ring doubling; capacity stabilizes after warm-up
		grown := make([]readReq, maxInt(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = req
	r.n++
}

//bow:hotpath
func (r *readRing) pop() readReq {
	req := r.buf[r.head]
	r.buf[r.head] = readReq{} // drop the sink reference
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return req
}

// writeRing is a FIFO of writeReq. pushSlot exposes the tail slot so
// the caller fills the value in place (one copy, not three); front and
// drop serve the head without copying it out. Slots are not zeroed on
// drop: writeReq holds no pointers, so stale values are invisible to
// the collector and harmless.
//
//bow:state
type writeRing struct {
	buf  []writeReq
	head int
	n    int
}

//bow:hotpath
func (r *writeRing) pushSlot() *writeReq {
	if r.n == len(r.buf) {
		//bowvet:ignore hotpathalloc -- amortized ring doubling; capacity stabilizes after warm-up
		grown := make([]writeReq, maxInt(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	sl := &r.buf[(r.head+r.n)%len(r.buf)]
	r.n++
	return sl
}

//bow:hotpath
func (r *writeRing) front() *writeReq { return &r.buf[r.head] }

//bow:hotpath
func (r *writeRing) drop() {
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// bank holds one bank's pending requests. Reads and writes queue
// separately so the write-priority pick ("first write in request order,
// else the head read") is O(1); relative order within each class is the
// enqueue order, exactly as in the single-queue model.
//
//bow:state
type bank struct {
	reads  readRing
	writes writeRing
}

func (b *bank) pending() int { return b.reads.n + b.writes.n }

// Stats counts register file traffic.
//
//bow:state
type Stats struct {
	Reads         int64 // bank read accesses served
	Writes        int64 // bank write accesses served
	BankConflicts int64 // cycles requests spent waiting behind a busy bank
}

// Accesses is total served bank accesses.
func (s *Stats) Accesses() int64 { return s.Reads + s.Writes }

// File is one SM's register file.
//
//bow:state
type File struct {
	cfg   Config         //bow:snapskip -- design-point geometry, fixed at construction; a restored File must be built with the same Config
	vals  [][]core.Value // [warp][reg]
	banks []bank
	// nonempty is a bitmap of banks with pending requests, so Cycle
	// visits only busy banks (ascending index, matching the full scan).
	nonempty []uint64 //bow:derived -- busy-bank bitmap; a load rederives it from the rebuilt queues via markBusy
	cycle    int64
	stats    Stats

	// delay holds served reads traversing the crossbar pipeline. Ready
	// times are monotone (cycle + AccessLatency), so it is a FIFO ring.
	delay servedRing
}

//bow:state
type servedRead struct {
	readyAt int64
	reg     uint8
	val     core.Value
	sink    ReadSink
}

// servedRing is the crossbar delay line. Like writeRing it exposes
// slots so values are copied exactly once in (from bank storage) and
// delivered by pointer out.
//
//bow:state
type servedRing struct {
	buf  []servedRead
	head int
	n    int
}

//bow:hotpath
func (r *servedRing) pushSlot() *servedRead {
	if r.n == len(r.buf) {
		//bowvet:ignore hotpathalloc -- amortized ring doubling; capacity stabilizes after warm-up
		grown := make([]servedRead, maxInt(8, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	sl := &r.buf[(r.head+r.n)%len(r.buf)]
	r.n++
	return sl
}

//bow:hotpath
func (r *servedRing) front() *servedRead { return &r.buf[r.head] }

//bow:hotpath
func (r *servedRing) drop() {
	sl := &r.buf[r.head]
	sl.sink = nil // the value may go stale; pointers may not
	r.head = (r.head + 1) % len(r.buf)
	r.n--
}

// New creates a register file with zeroed contents.
func New(cfg Config) (*File, error) {
	if cfg.NumBanks <= 0 || cfg.WarpRegsPerB <= 0 || cfg.MaxWarps <= 0 {
		return nil, fmt.Errorf("regfile: invalid config %+v", cfg)
	}
	f := &File{cfg: cfg}
	f.vals = make([][]core.Value, cfg.MaxWarps)
	for w := range f.vals {
		f.vals[w] = make([]core.Value, 256)
	}
	f.banks = make([]bank, cfg.NumBanks)
	f.nonempty = make([]uint64, (cfg.NumBanks+63)/64)
	return f, nil
}

// Reset restores the file to its freshly-constructed state — zeroed
// registers, empty bank queues, empty delay line, zeroed counters —
// while keeping every backing allocation (value store, ring buffers,
// bitmap). A reset file is observationally identical to New(f.Config())
// output: the engine's carcass pool recycles register files across
// runs on the strength of that equivalence, and the gpu recycling
// suite checks it end to end. Ring entries
// are cleared (not just truncated) so stale ReadSink
// references from an aborted run cannot retain a dead simulation.
func (f *File) Reset() {
	for _, v := range f.vals {
		for i := range v {
			v[i] = core.Value{}
		}
	}
	for i := range f.banks {
		b := &f.banks[i]
		for j := range b.reads.buf {
			b.reads.buf[j] = readReq{}
		}
		b.reads.head, b.reads.n = 0, 0
		b.writes.head, b.writes.n = 0, 0
	}
	for i := range f.nonempty {
		f.nonempty[i] = 0
	}
	for i := range f.delay.buf {
		f.delay.buf[i] = servedRead{}
	}
	f.delay.head, f.delay.n = 0, 0
	f.cycle = 0
	f.stats = Stats{}
}

// Config returns the file's configuration.
func (f *File) Config() Config { return f.cfg }

// Stats returns a snapshot of the counters.
func (f *File) Stats() Stats { return f.stats }

// Bank returns the bank a warp-register maps to. Registers are striped
// across banks with a per-warp interleave so different warps' same-
// numbered registers land in different banks (standard GPGPU-Sim
// layout).
func (f *File) Bank(warp int, reg uint8) int {
	return (int(reg) + warp) % f.cfg.NumBanks
}

//bow:hotpath
func (f *File) markBusy(b int) { f.nonempty[b>>6] |= 1 << uint(b&63) }

// EnqueueReadSink queues a read of (warp, reg); sink receives the value
// when the bank port serves the request and the crossbar delivers it.
//
//bow:hotpath
func (f *File) EnqueueReadSink(warp int, reg uint8, sink ReadSink) {
	b := f.Bank(warp, reg)
	f.banks[b].reads.push(readReq{warp: int32(warp), reg: reg, sink: sink, queued: f.cycle})
	f.markBusy(b)
}

// EnqueueWrite queues a write of *val to (warp, reg), copying the
// value into the bank's ring slot.
//
//bow:hotpath
func (f *File) EnqueueWrite(warp int, reg uint8, val *core.Value) {
	b := f.Bank(warp, reg)
	sl := f.banks[b].writes.pushSlot()
	sl.warp, sl.reg, sl.queued = int32(warp), reg, f.cycle
	sl.val = *val
	f.markBusy(b)
}

// Pending reports the number of outstanding requests across all banks.
func (f *File) Pending() int {
	n := 0
	for i := range f.banks {
		n += f.banks[i].pending()
	}
	return n
}

// deliver hands a completed read to its receiver.
//
//bow:hotpath
func deliver(reg uint8, val *core.Value, sink ReadSink) {
	if sink != nil {
		sink.DeliverRead(reg, val)
	}
}

// Cycle advances the register file one clock: each busy bank serves at
// most one request, writes first (matching the write-priority
// arbitration of the baseline architecture); served reads deliver their
// value after the AccessLatency pipeline.
//
//bow:hotpath
func (f *File) Cycle() {
	f.cycle++

	// Drain matured reads from the crossbar pipeline (FIFO: ready times
	// are monotone in enqueue order). Delivery happens from the ring
	// slot by pointer; receivers must not retain it. Receivers only
	// enqueue bank requests (never delay-line entries), so the slot
	// stays valid across the call.
	for f.delay.n > 0 && f.delay.front().readyAt <= f.cycle {
		sr := f.delay.front()
		deliver(sr.reg, &sr.val, sr.sink)
		f.delay.drop()
	}

	// Serve busy banks in ascending index order. The bitmap is re-read
	// per step (masked to not revisit passed positions) so a zero-latency
	// delivery that enqueues onto a later bank mid-scan is still served
	// this cycle, exactly as the full scan would.
	for w := range f.nonempty {
		var passed uint64
		for {
			word := f.nonempty[w] &^ passed
			if word == 0 {
				break
			}
			bit := bits.TrailingZeros64(word)
			passed |= ((1 << uint(bit)) << 1) - 1 // bits [0, bit]
			b := w<<6 + bit
			f.cycleBank(b)
			if f.banks[b].pending() == 0 {
				f.nonempty[w] &^= 1 << uint(bit)
			}
		}
	}
}

// cycleBank serves one request on bank b: the oldest write if any is
// pending, else the oldest read.
//
//bow:hotpath
func (f *File) cycleBank(b int) {
	bk := &f.banks[b]
	if bk.writes.n > 0 {
		req := bk.writes.front()
		f.vals[req.warp][req.reg] = req.val
		bk.writes.drop()
		f.stats.BankConflicts += int64(bk.pending())
		f.stats.Writes++
		return
	}

	req := bk.reads.pop()
	f.stats.BankConflicts += int64(bk.pending())
	f.stats.Reads++
	if f.cfg.AccessLatency <= 0 {
		// Zero-latency delivery straight from storage. Receivers may
		// enqueue writes to this same register mid-call only via queued
		// bank requests, which cannot mutate storage until a later
		// cycleBank — the pointed-to value is stable for the call.
		deliver(req.reg, &f.vals[req.warp][req.reg], req.sink)
		return
	}
	sl := f.delay.pushSlot()
	sl.readyAt = f.cycle + int64(f.cfg.AccessLatency)
	sl.reg = req.reg
	sl.val = f.vals[req.warp][req.reg]
	sl.sink = req.sink
}

// Peek returns the stored value without timing effects (functional/oracle
// access). The pointer aliases the register's storage: it reflects
// later Poke calls and served writes, so callers copy what they keep.
func (f *File) Peek(warp int, reg uint8) *core.Value { return &f.vals[warp][reg] }

// Poke stores *val without timing effects (initialization, direct
// functional writes).
func (f *File) Poke(warp int, reg uint8, val *core.Value) { f.vals[warp][reg] = *val }
