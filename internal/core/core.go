// Package core implements the BOW mechanism itself: the per-warp
// breathing operand window. The Engine tracks the register operands of
// the last IW instructions of one warp, decides which reads can be
// bypassed (served from the Bypassing Operand Collector instead of the
// register-file banks), and which writes can be consolidated (never
// written to the RF because a newer write inside the window supersedes
// them, or because the compiler tagged the value transient).
//
// The engine is purely a bookkeeping/value structure with no notion of
// cycles. The timing pipeline (internal/sm) drives it with three calls
// per dynamic instruction, passing warp-wide values by pointer (a Value
// is 128 bytes and these calls sit on the simulator's hottest path):
//
//	e.Advance(in, &plan)                     // at issue: slide window, plan reads into caller-owned plan
//	e.FillFromRF(reg, &val, plan.Seq)        // when an RF bank read completes
//	e.Writeback(reg, &val, in.WBHint, seq)   // when the result is produced
//
// The engine copies what it keeps; the pointers are borrowed for the
// duration of the call. Trace-level analyses (Fig. 3, Table I) use
// Replay, which performs the three steps back-to-back with no timing in
// between.
package core

import (
	"fmt"

	"bow/internal/isa"
)

// Value is one warp-wide register value (32 lanes × 32 bits).
type Value [isa.WarpSize]uint32

// ValueBytes is the encoded size of one Value in a snapshot.
const ValueBytes = 4 * isa.WarpSize

// Policy selects the write-back behaviour of the window (paper §IV).
type Policy uint8

// Policies.
const (
	// PolicyBaseline disables bypassing entirely: every read and write
	// goes to the register file (conventional OCU behaviour).
	PolicyBaseline Policy = iota
	// PolicyWriteThrough is baseline BOW: reads are bypassed, but every
	// result is written to both the BOC and the RF.
	PolicyWriteThrough
	// PolicyWriteBack is BOW-WR without compiler hints: results are
	// written to the BOC only and reach the RF when the value slides out
	// of the window un-superseded.
	PolicyWriteBack
	// PolicyCompilerHints is BOW-WR with the two-bit compiler hints
	// steering each write to the RF, the BOC, or both.
	PolicyCompilerHints
	// PolicyCARFC models the compiler-assisted register file cache of
	// Shoushtary et al. (arXiv 2310.17501): a capacity-managed cache
	// (no nominal window) with ForwardThroughPort timing, plus two
	// compiler assists — allocation hints (an rf-only write never
	// occupies an entry) and last-use deallocation (a read whose
	// register is dead afterwards frees its entry, dropping dead dirty
	// values without an RF write).
	PolicyCARFC
	// PolicyLTRF models the latency-tolerant register file of
	// Sadrosadati et al. (arXiv 2010.09330): the compiler partitions
	// each block into prefetch intervals whose working set fits the
	// buffer; the first touch of a register in an interval fetches it
	// from the RF (the software prefetch), later touches hit the
	// buffer, and the buffer drains back to the RF at every interval
	// boundary.
	PolicyLTRF
	// PolicySCRF models the statically-compressed register file of
	// Angerd et al. (arXiv 2006.05693): functionally and timing-wise
	// identical to the baseline (every access goes to the banks), but
	// accesses to registers the compiler proved narrow are counted
	// separately and charged a reduced per-access energy.
	PolicySCRF
)

// traits is everything the engine needs to know about a policy. The
// engine branches on these, never on policy identity, so a new policy
// that reuses existing behaviour is one entry here; internal/policy
// maps architectures (rfc, for one, is PolicyWriteBack behind a
// forwarding port) onto these values.
type traits struct {
	name string
	// buffers: operand values live in the BOC; false means every access
	// goes to the banks (the window knobs are meaningless).
	buffers bool
	// window: the buffer has a nominal instruction window, so the
	// BeyondWindow/NoExtend ablations apply and a boc-only hint means
	// "dead once it leaves the window".
	window bool
	// writeThrough: every result also goes to the RF at writeback.
	writeThrough bool
	// hints: writeback honours the compiler's two-bit hint (rf-only
	// results bypass the buffer; the hint rides on the entry).
	hints bool
	// lastUse: a compiler-marked last read frees its entry, and a value
	// read for the last time never earns one.
	lastUse bool
	// intervalDrain: the buffer drains at prefetch-interval boundaries
	// instead of sliding a window.
	intervalDrain bool
	// compressed: RF accesses to compiler-proven narrow registers are
	// counted separately for the energy model.
	compressed bool
}

// policyTraits is indexed by Policy. Config.Normalize rejects values
// beyond it, so an engine, whose config is normalized, indexes it
// safely.
var policyTraits = [...]traits{
	PolicyBaseline:      {name: "baseline"},
	PolicyWriteThrough:  {name: "bow-wt", buffers: true, window: true, writeThrough: true},
	PolicyWriteBack:     {name: "bow-wb", buffers: true, window: true},
	PolicyCompilerHints: {name: "bow-wr", buffers: true, window: true, hints: true},
	PolicyCARFC:         {name: "carfc", buffers: true, hints: true, lastUse: true},
	PolicyLTRF:          {name: "ltrf", buffers: true, intervalDrain: true},
	PolicySCRF:          {name: "scrf", compressed: true},
}

// NumPolicies is the number of Policy values; valid policies are
// 0..NumPolicies-1.
const NumPolicies = len(policyTraits)

func (p Policy) String() string {
	if int(p) < NumPolicies {
		return policyTraits[p].name
	}
	return fmt.Sprintf("Policy(%d)", uint8(p))
}

// Bypassing reports whether the policy uses the window at all. SCRF
// compresses the banks themselves — it buffers nothing, so it behaves
// as the baseline everywhere except energy accounting.
func (p Policy) Bypassing() bool { return int(p) < NumPolicies && policyTraits[p].buffers }

// WriteCause distinguishes why a register-file write was generated.
type WriteCause uint8

// Write causes.
const (
	// CauseWriteThrough: the write-through policy copies every result to
	// the RF at writeback time.
	CauseWriteThrough WriteCause = iota
	// CauseWindowEvict: a dirty value slid out of the instruction window
	// without being superseded.
	CauseWindowEvict
	// CauseCapacityEvict: the (down-sized) BOC ran out of entries and a
	// dirty value was forced out early. This fires even for values the
	// compiler tagged boc-only — correctness requires saving them.
	CauseCapacityEvict
	// CauseHintDirect: the compiler tagged the value rf-only, so it goes
	// straight to the RF and never occupies a BOC entry.
	CauseHintDirect
	// CauseIntervalDrain: the ltrf policy reached a prefetch-interval
	// boundary and wrote the buffer's dirty values back to the RF.
	CauseIntervalDrain

	// NumWriteCauses sizes per-cause histograms.
	NumWriteCauses = int(CauseIntervalDrain) + 1
)

func (c WriteCause) String() string {
	switch c {
	case CauseWriteThrough:
		return "write-through"
	case CauseWindowEvict:
		return "window-evict"
	case CauseCapacityEvict:
		return "capacity-evict"
	case CauseHintDirect:
		return "hint-direct"
	case CauseIntervalDrain:
		return "interval-drain"
	}
	return fmt.Sprintf("WriteCause(%d)", uint8(c))
}

// RFWriteSink receives the register-file writes the engine decides to
// perform. The timing pipeline turns these into bank requests; trace
// replays just count them. val points into engine storage (or the
// caller's writeback value) and is valid only for the call: a sink that
// keeps the value copies it.
type RFWriteSink func(reg uint8, val *Value, cause WriteCause)

// Config parametrizes an Engine.
type Config struct {
	// IW is the instruction-window size (paper default 3).
	IW int
	// Capacity is the maximum number of live entries in the BOC
	// (registers buffered). 0 means the conservative worst-case sizing
	// of 4 entries per windowed instruction (4*IW). The down-sized design
	// of §IV-C uses 2*IW.
	Capacity int
	// Policy selects the write-back behaviour.
	Policy Policy
	// ForwardThroughPort models a register-file-cache (RFC) comparator
	// instead of BOW's forwarding network: values found in the buffer
	// still pass through the collector's single port one per cycle, so
	// energy improves but port serialization remains (paper §V-A,
	// "Comparison to Register File Caching"). The timing pipeline reads
	// this flag; the window engine itself is unaffected.
	ForwardThroughPort bool
	// NoExtend disables the paper's "Extended Instruction Window": a
	// read hit no longer refreshes the value's residence, so a value is
	// evicted IW instructions after it entered regardless of reuse.
	// Ablation knob only (the paper's design always extends).
	NoExtend bool
	// BeyondWindow implements the paper's stated future work (§IV-C
	// closing paragraph): bypassing is no longer cut off at the nominal
	// window — values stay in the BOC until capacity evicts them. The
	// nominal IW still bounds what the *compiler* may assume, so this
	// knob is only safe with PolicyWriteThrough or PolicyWriteBack
	// (Normalize rejects it with compiler hints: a boc-only tag derived
	// from a fixed window is unsound when eviction timing changes).
	BeyondWindow bool
}

// Normalize fills defaults and validates.
func (c Config) Normalize() (Config, error) {
	if int(c.Policy) >= NumPolicies {
		return c, fmt.Errorf("core: unknown policy %v", c.Policy)
	}
	t := policyTraits[c.Policy]
	if !t.buffers {
		// Baseline and scrf buffer nothing: the window knobs are
		// meaningless and the ablations have nothing to ablate.
		if c.BeyondWindow || c.NoExtend {
			return c, fmt.Errorf("core: BeyondWindow/NoExtend need a bypassing policy")
		}
		return c, nil
	}
	if !t.window && (c.BeyondWindow || c.NoExtend) {
		// The rival designs have no nominal instruction window, so the
		// window ablations do not apply to them.
		return c, fmt.Errorf("core: BeyondWindow/NoExtend do not apply to %v", c.Policy)
	}
	if c.IW < 2 {
		return c, fmt.Errorf("core: instruction window %d too small (min 2)", c.IW)
	}
	if c.Capacity == 0 {
		c.Capacity = 4 * c.IW
	}
	if c.Capacity < 1 {
		return c, fmt.Errorf("core: capacity %d invalid", c.Capacity)
	}
	if c.BeyondWindow && t.hints {
		return c, fmt.Errorf("core: BeyondWindow is unsound with compiler hints " +
			"(transient tags assume the fixed nominal window)")
	}
	return c, nil
}

// entry is one buffered register value inside the window. Live
// entries are serialized field-by-field inside Engine.State.
//
//bow:state
type entry struct {
	reg        uint8
	val        Value
	lastAccess int64 // sequence number of the most recent access
	dirty      bool  // value newer than the RF copy
	hint       isa.WritebackHint
	cancelWB   bool // a newer write inside the window superseded this value
	// pending marks an entry whose RF fill is still in flight: the slot
	// is reserved and later readers forward from it (request merging),
	// but the value is not yet architecturally valid.
	pending bool
	// next links recycled entries on the engine's free list.
	next *entry //bow:derived -- free-list link; only dead entries are on the list, live ones are serialized
}

// Stats counts the engine's traffic. All counts are in warp-register
// accesses (one access = one 128-byte warp-wide operand).
//
//bow:state
type Stats struct {
	Instructions int64 // dynamic instructions advanced through the window

	RFReads      int64 // reads served by the register file
	BypassedRead int64 // reads served by the BOC (forwarded)

	RFWrites         int64 // writes that reached the register file
	CoalescedWrites  int64 // dirty values superseded inside the window (write bypassed)
	DroppedTransient int64 // dirty dead values discarded (window exit or last-use free)
	FlushDropped     int64 // dirty values discarded when the warp exited
	CapacityEvicts   int64 // early evictions forced by a full BOC

	BOCReads  int64 // reads of BOC entries (forwards)
	BOCWrites int64 // writes into BOC entries (fills + results)

	// LastUseFrees counts carfc cache entries deallocated by a last-use
	// read hint; IntervalDrains counts ltrf prefetch-interval boundary
	// drains (buffer flushes, not per-value writes).
	LastUseFrees   int64
	IntervalDrains int64
	// CompressedReads/CompressedWrites count the scrf RF accesses that
	// hit compiler-proven narrow registers (a subset of RFReads and
	// RFWrites; the energy model charges them a reduced per-access
	// cost).
	CompressedReads  int64
	CompressedWrites int64

	// RFWritesByReg histograms RF writes per architectural register
	// (used by the Table I reproduction).
	RFWritesByReg [256]int64
	// RFWriteCauses histograms writes by cause.
	RFWriteCauses [NumWriteCauses]int64
}

// Merge accumulates o into s (aggregation across warps and SMs).
func (s *Stats) Merge(o *Stats) {
	s.Instructions += o.Instructions
	s.RFReads += o.RFReads
	s.BypassedRead += o.BypassedRead
	s.RFWrites += o.RFWrites
	s.CoalescedWrites += o.CoalescedWrites
	s.DroppedTransient += o.DroppedTransient
	s.FlushDropped += o.FlushDropped
	s.CapacityEvicts += o.CapacityEvicts
	s.BOCReads += o.BOCReads
	s.BOCWrites += o.BOCWrites
	s.LastUseFrees += o.LastUseFrees
	s.IntervalDrains += o.IntervalDrains
	s.CompressedReads += o.CompressedReads
	s.CompressedWrites += o.CompressedWrites
	for i := range s.RFWritesByReg {
		s.RFWritesByReg[i] += o.RFWritesByReg[i]
	}
	for i := range s.RFWriteCauses {
		s.RFWriteCauses[i] += o.RFWriteCauses[i]
	}
}

// TotalReads is all operand reads, bypassed or not.
func (s *Stats) TotalReads() int64 { return s.RFReads + s.BypassedRead }

// TotalWrites is all result writes, whether they reached the RF or not.
func (s *Stats) TotalWrites() int64 {
	return s.RFWrites + s.CoalescedWrites + s.DroppedTransient + s.FlushDropped
}

// ReadBypassFrac is the fraction of reads eliminated from the RF.
func (s *Stats) ReadBypassFrac() float64 {
	if t := s.TotalReads(); t > 0 {
		return float64(s.BypassedRead) / float64(t)
	}
	return 0
}

// WriteBypassFrac is the fraction of writes eliminated from the RF.
func (s *Stats) WriteBypassFrac() float64 {
	if t := s.TotalWrites(); t > 0 {
		return float64(t-s.RFWrites) / float64(t)
	}
	return 0
}

// Plan is the operand-collection plan Advance fills: which source
// operands were forwarded from the window and which must be fetched from
// the register-file banks. The caller owns it and reuses it across
// instructions; Advance resets only the counts, so entries past them
// are stale.
type Plan struct {
	Seq int64 // sequence number assigned to the instruction

	// Bypassed operands: register number and forwarded value.
	BypassedRegs [isa.MaxSrcOperands]uint8
	Bypassed     [isa.MaxSrcOperands]Value
	NBypassed    int

	// NeedRF operands must be read from the banks.
	NeedRF  [isa.MaxSrcOperands]uint8
	NNeedRF int

	// PendingRegs are operands whose bank read was already issued by an
	// earlier in-flight instruction: no new bank request is needed — the
	// caller wires the arriving fill to this instruction too (request
	// merging in the collector).
	PendingRegs  [isa.MaxSrcOperands]uint8
	NPendingRegs int
}

// Engine is the breathing operand window of a single warp.
//
// Entry storage is a direct-indexed table plus an insertion-ordered
// live list instead of a map: register numbers are 8-bit, the BOC holds
// at most Capacity+1 entries, and the cycle loop calls Advance once per
// dynamic instruction — so lookups must be branch-cheap, the expiry
// scan must iterate in a deterministic order, and the steady state must
// not allocate. Entries are recycled through a free list preallocated
// at construction.
//
//bow:state
type Engine struct {
	cfg   Config      //bow:snapskip -- design-point config, fixed at construction (buildEngines)
	tr    traits      //bow:snapskip -- cfg.Policy's traits, bound with cfg
	sink  RFWriteSink //bow:snapskip -- RF write wiring, rebound at construction
	seq   int64
	byReg [256]*entry //bow:derived -- index over live, rebuilt on load via attach
	live  []*entry    // live entries in insertion order
	free  *entry      //bow:derived -- recycled-entry pool; dead by definition
	stats Stats

	// interval is the ltrf prefetch interval currently buffered (-1
	// before the first instruction). The buffer drains when an
	// instruction carries a different interval index.
	interval int32
}

// NewEngine creates a window engine. sink must not be nil for bypassing
// policies (baseline tolerates nil).
func NewEngine(cfg Config, sink RFWriteSink) (*Engine, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Policy.Bypassing() && sink == nil {
		return nil, fmt.Errorf("core: bypassing policy %v requires a write sink", cfg.Policy)
	}
	e := &Engine{cfg: cfg, tr: policyTraits[cfg.Policy], sink: sink, interval: -1}
	e.reserve(0)
	return e, nil
}

// reserve sizes the live list and the entry slab for the engine's
// config, given `have` entries already on the free list. Capacity+1
// covers the transient overshoot between attach and enforceCapacity;
// one spare slab entry keeps allocEntry off the heap even if that
// invariant ever slips by one. Non-bypassing policies buffer nothing
// and need neither.
func (e *Engine) reserve(have int) {
	if !e.tr.buffers {
		return
	}
	if cap(e.live) < e.cfg.Capacity+1 {
		e.live = make([]*entry, 0, e.cfg.Capacity+1)
	}
	if want := e.cfg.Capacity + 2; have < want {
		slab := make([]entry, want-have)
		for i := range slab {
			slab[i].next = e.free
			e.free = &slab[i]
		}
	}
}

// Reset rebinds the engine to cfg in place for a recycled SM: the
// window empties, the counters and sequence restart, and the byReg
// table, the live list and the entry slab are kept — the slab grows
// only when cfg needs more entries than it holds. Every kept entry is
// zeroed, so a reset engine is indistinguishable from NewEngine(cfg),
// down to the bytes a later snapshot writes for pending entries. The
// write sink is kept: it is SM wiring, not launch state.
func (e *Engine) Reset(cfg Config) error {
	cfg, err := cfg.Normalize()
	if err != nil {
		return err
	}
	if cfg.Policy.Bypassing() && e.sink == nil {
		return fmt.Errorf("core: bypassing policy %v requires a write sink", cfg.Policy)
	}
	e.cfg = cfg
	e.tr = policyTraits[cfg.Policy]
	e.seq = 0
	e.interval = -1
	e.stats = Stats{}
	for _, en := range e.live {
		en.next = e.free
		e.free = en
	}
	clear(e.live)
	e.live = e.live[:0]
	clear(e.byReg[:])
	have := 0
	for en := e.free; en != nil; en = en.next {
		*en = entry{next: en.next}
		have++
	}
	e.reserve(have)
	return nil
}

// Config returns the engine's normalized configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// Coalesced returns the running count of consolidated writes. It exists
// so the cycle tracer can detect a write bypass around one Advance call
// without copying the full Stats block.
func (e *Engine) Coalesced() int64 { return e.stats.CoalescedWrites }

// Occupancy returns the number of live BOC entries (for Fig. 9).
func (e *Engine) Occupancy() int { return len(e.live) }

// allocEntry pops a recycled entry (or, as a safety net, heap-allocates
// one). The 128-byte value is deliberately left stale: every path that
// publishes an entry either fills val or marks it pending.
//
//bow:hotpath
func (e *Engine) allocEntry() *entry {
	if en := e.free; en != nil {
		e.free = en.next
		en.next = nil
		return en
	}
	//bowvet:ignore hotpathalloc -- free-list miss: amortized across the run, steady state recycles
	return new(entry)
}

// attach publishes a fresh entry for reg at the live-list tail.
//
//bow:hotpath
func (e *Engine) attach(reg uint8, en *entry) {
	en.reg = reg
	e.byReg[reg] = en
	e.live = append(e.live, en)
}

// release resets an entry's bookkeeping and pushes it on the free list.
// The caller must already have unlinked it from byReg/live.
//
//bow:hotpath
func (e *Engine) release(en *entry) {
	en.lastAccess = 0
	en.dirty = false
	en.hint = isa.WBBoth
	en.cancelWB = false
	en.pending = false
	en.next = e.free
	e.free = en
}

// detach unlinks en from the table and the live list (preserving
// insertion order) and recycles it.
//
//bow:hotpath
func (e *Engine) detach(en *entry) {
	e.byReg[en.reg] = nil
	for i, x := range e.live {
		if x == en {
			copy(e.live[i:], e.live[i+1:])
			e.live[len(e.live)-1] = nil
			e.live = e.live[:len(e.live)-1]
			break
		}
	}
	e.release(en)
}

// Lookup returns the buffered value of reg, or nil when the window
// holds none. Used by the functional executor to obtain the *effective*
// architectural value (window copy is always newer than the RF copy
// when dirty). Pending entries hold no valid value yet and do not
// count. The pointer aliases the entry and is valid until the engine's
// next call; callers copy what they keep.
//
//bow:hotpath
func (e *Engine) Lookup(reg uint8) *Value {
	if en := e.byReg[reg]; en != nil && !en.pending {
		return &en.val
	}
	return nil
}

// Advance slides the window over the next dynamic instruction of the
// warp: values that fall out of the window are evicted (writing dirty
// survivors to the RF through the sink), the instruction's source
// operands are looked up for forwarding, and a pending older write to
// the same destination is consolidated. The plan is written into p,
// whose counts are reset first.
//
//bow:hotpath
func (e *Engine) Advance(in *isa.Instruction, p *Plan) {
	e.seq++
	e.stats.Instructions++
	p.Seq = e.seq
	p.NBypassed, p.NNeedRF, p.NPendingRegs = 0, 0, 0

	if !e.tr.buffers {
		regs, n := in.UniqueSrcRegs()
		for i := 0; i < n; i++ {
			p.NeedRF[p.NNeedRF] = regs[i]
			p.NNeedRF++
			e.stats.RFReads++
			if e.tr.compressed && in.SrcNarrowOf(regs[i]) {
				e.stats.CompressedReads++
			}
		}
		if e.tr.compressed && in.DstNarrow {
			if _, ok := in.DstReg(); ok {
				// The write-back this instruction will perform hits a
				// narrow register; count it here where the hint is at
				// hand (every advanced instruction with a destination
				// writes back exactly once).
				e.stats.CompressedWrites++
			}
		}
		return
	}

	// 1. Window slide. BOW policies evict entries whose last access is
	// IW or more instructions behind; ltrf instead drains the whole
	// buffer at prefetch-interval boundaries (carfc's effectively
	// unbounded IW makes expiry a no-op).
	if e.tr.intervalDrain {
		if in.Interval != e.interval {
			e.drainInterval()
			e.interval = in.Interval
		}
	} else {
		e.evictExpired()
	}

	// 2. Source operand lookup. A hit on a pending entry forwards from
	// the in-flight fill (request merging): no extra bank read, but the
	// value arrives with the fill rather than immediately.
	regs, n := in.UniqueSrcRegs()
	for i := 0; i < n; i++ {
		r := regs[i]
		lastUse := e.tr.lastUse && in.LastUseOf(r)
		if en := e.byReg[r]; en != nil {
			if !e.cfg.NoExtend {
				en.lastAccess = e.seq
			}
			if en.pending {
				p.PendingRegs[p.NPendingRegs] = r
				p.NPendingRegs++
			} else {
				p.BypassedRegs[p.NBypassed] = r
				p.Bypassed[p.NBypassed] = en.val
				p.NBypassed++
			}
			e.stats.BypassedRead++
			e.stats.BOCReads++
			if lastUse {
				// CARFC last-use deallocation: the register is dead after
				// this read, so the entry is freed now — a dead dirty
				// value never costs an RF write. (A pending entry's
				// in-flight fill is dropped harmlessly; the merged readers
				// receive the value through the caller's plumbing.)
				e.deallocLastUse(en)
			}
		} else {
			p.NeedRF[p.NNeedRF] = r
			p.NNeedRF++
			e.stats.RFReads++
			if lastUse {
				// CARFC allocation hint: a value read for the last time
				// has no further reuse, so it never earns a cache entry.
				continue
			}
			// Reserve the slot so later in-flight readers merge into this
			// fill instead of issuing their own bank read.
			en := e.allocEntry()
			en.lastAccess = e.seq
			en.pending = true
			e.attach(r, en)
			e.stats.BOCWrites++
			e.enforceCapacity()
		}
	}

	// 3. Destination consolidation: a pending dirty value of the same
	// register is superseded by this instruction (the paper's write
	// bypass). The entry's value stays valid until the new result
	// arrives, but its RF write-back is cancelled now.
	if d, ok := in.DstReg(); ok {
		if en := e.byReg[d]; en != nil && !en.cancelWB {
			if en.dirty {
				e.stats.CoalescedWrites++
			}
			en.cancelWB = true
		}
	}
}

// evictExpired removes entries that slid out of the instruction window,
// oldest insertion first (the live list keeps insertion order, so the
// RF write-back order is deterministic — the map this replaced iterated
// randomly). With BeyondWindow, the nominal window never expires values
// — only capacity pressure does (the paper's stated future work).
//
//bow:hotpath
func (e *Engine) evictExpired() {
	if e.cfg.BeyondWindow {
		return
	}
	for i := 0; i < len(e.live); {
		en := e.live[i]
		if e.seq-en.lastAccess >= int64(e.cfg.IW) {
			e.evict(en, false) // removes live[i]; the next entry shifts into i
			continue
		}
		i++
	}
}

// evict removes one entry, writing it back to the RF when required.
// capacity marks a forced early eviction (full BOC).
//
//bow:hotpath
func (e *Engine) evict(en *entry, capacity bool) {
	r := en.reg
	if !en.dirty || en.cancelWB {
		e.detach(en)
		return
	}
	if capacity {
		// Early eviction must preserve the value even if the compiler
		// tagged it boc-only: its remaining reuses haven't happened yet.
		e.emitRF(r, &en.val, CauseCapacityEvict)
		e.stats.CapacityEvicts++
		e.detach(en)
		return
	}
	if e.tr.window && e.tr.hints && en.hint == isa.WBCollectorOnly {
		// Transient value: dead beyond the window, never touches the RF.
		e.stats.DroppedTransient++
		e.detach(en)
		return
	}
	e.emitRF(r, &en.val, CauseWindowEvict)
	e.detach(en)
}

// deallocLastUse frees a carfc entry whose register just saw its
// compiler-marked final read. A dead dirty value is dropped without an
// RF write (that is the design's write saving); a superseded one was
// already counted as coalesced at consolidation time.
//
//bow:hotpath
func (e *Engine) deallocLastUse(en *entry) {
	if en.dirty && !en.cancelWB {
		e.stats.DroppedTransient++
	}
	e.stats.LastUseFrees++
	e.detach(en)
}

// drainInterval empties the ltrf buffer at a prefetch-interval
// boundary: dirty un-superseded values are written back to the RF in
// insertion order, everything else is simply freed. An empty buffer
// drains for free (and is not counted), which keeps a cross-policy
// resume — restored with an empty buffer and interval -1 — on the cold
// run's exact statistics.
//
//bow:hotpath
func (e *Engine) drainInterval() {
	if len(e.live) == 0 {
		return
	}
	e.stats.IntervalDrains++
	for _, en := range e.live {
		e.byReg[en.reg] = nil
		if en.dirty && !en.cancelWB {
			e.emitRF(en.reg, &en.val, CauseIntervalDrain)
		}
		e.release(en)
	}
	e.live = e.live[:0]
}

//bow:hotpath
func (e *Engine) emitRF(r uint8, v *Value, cause WriteCause) {
	e.stats.RFWrites++
	e.stats.RFWritesByReg[r]++
	e.stats.RFWriteCauses[cause]++
	if e.sink != nil {
		e.sink(r, v, cause)
	}
}

// FillFromRF records that an RF bank read for the plan's instruction
// delivered reg's value, completing the pending slot Advance reserved.
// If the slot was already evicted (window slide or capacity) the fill
// is dropped — its waiting readers receive the value through the
// caller's own plumbing, and re-inserting here would resurrect a value
// the window semantics already aged out. The fill copies *val and
// evicts nothing.
//
//bow:hotpath
func (e *Engine) FillFromRF(reg uint8, val *Value, seq int64) {
	if !e.tr.buffers {
		return
	}
	if en := e.byReg[reg]; en != nil {
		if en.pending {
			en.val = *val
			en.pending = false
		}
		if seq > en.lastAccess {
			en.lastAccess = seq
		}
	}
}

// Writeback delivers the result of the instruction issued at seq. The
// caller passes the full warp-wide merged value (predication merges are
// the functional executor's job); the engine copies what it buffers.
// Returns true when the value was buffered in the BOC.
//
//bow:hotpath
func (e *Engine) Writeback(reg uint8, val *Value, hint isa.WritebackHint, seq int64) bool {
	if !e.tr.buffers {
		e.emitRF(reg, val, CauseWriteThrough)
		return false
	}
	if e.tr.writeThrough {
		e.emitRF(reg, val, CauseWriteThrough)
		e.install(reg, val, false, isa.WBBoth, seq)
		return true
	}
	if !e.tr.hints {
		hint = isa.WBBoth
	} else if hint == isa.WBRegfileOnly {
		// Straight to the RF; drop any stale window copy (its pending
		// write was already cancelled by Advance's consolidation).
		if en := e.byReg[reg]; en != nil {
			e.detach(en)
		}
		e.emitRF(reg, val, CauseHintDirect)
		return false
	}
	e.install(reg, val, true, hint, seq)
	return true
}

// install creates or refreshes the window entry for reg.
//
//bow:hotpath
func (e *Engine) install(reg uint8, val *Value, dirty bool, hint isa.WritebackHint, seq int64) {
	if en := e.byReg[reg]; en != nil {
		en.val = *val
		en.dirty = dirty
		en.hint = hint
		en.cancelWB = false
		en.pending = false
		if seq > en.lastAccess {
			en.lastAccess = seq
		}
		e.stats.BOCWrites++
		return
	}
	en := e.allocEntry()
	en.val = *val
	en.lastAccess = seq
	en.dirty = dirty
	en.hint = hint
	e.attach(reg, en)
	e.stats.BOCWrites++
	e.enforceCapacity()
}

// enforceCapacity evicts oldest-accessed entries until the BOC fits its
// physical entry budget (FIFO on last access, per §IV-C).
//
//bow:hotpath
func (e *Engine) enforceCapacity() {
	for len(e.live) > e.cfg.Capacity {
		victim := e.live[0]
		for _, en := range e.live[1:] {
			if en.lastAccess < victim.lastAccess ||
				(en.lastAccess == victim.lastAccess && en.reg < victim.reg) {
				victim = en
			}
		}
		e.evict(victim, true)
	}
}

// Flush ends the warp: remaining window contents are discarded. The
// register context dies with the kernel, so dirty values need not reach
// the RF; callers needing the final architectural state use Lookup
// before flushing.
func (e *Engine) Flush() {
	for _, en := range e.live {
		if en.dirty && !en.cancelWB {
			e.stats.FlushDropped++
		}
		e.byReg[en.reg] = nil
		e.release(en)
	}
	e.live = e.live[:0]
}
