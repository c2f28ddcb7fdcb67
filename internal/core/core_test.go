package core

import (
	"testing"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/isa"
)

// stream converts a straight-line program into the dynamic instruction
// stream a single warp would execute (no branches taken).
func stream(p *asm.Program) []*isa.Instruction {
	out := make([]*isa.Instruction, 0, len(p.Code))
	for i := range p.Code {
		out = append(out, &p.Code[i])
	}
	return out
}

const tableISource = `
.kernel btree_snippet
  ld.global r3, [r8+0x0]
  mov       r2, 0x0ff4
  mul       r1, r0, r2
  mad       r1, r0, r2, r1
  shl       r1, r1, 0x10
  mad       r0, r0, r2, r1
  add       r0, r10, r0
  add       r0, r9, r0
  add       r1, r0, 0x7f8
  ld.global r2, [r1+0x0]
  shl       r4, r2, 0x100
  add       r4, r2, 0x8f
  setp.ne   p0, r3, r1
  exit
`

// TestTableI reproduces the paper's Table I exactly: the number of RF
// writes for registers r0..r3 of the Fig. 6 BTREE fragment must be
//
//	            r0  r1  r2  r3  total
//	write-thru   3   4   2   1   10
//	write-back   1   2   1   1    5
//	compiler     0   1   0   1    2
//
// with an instruction window of 3.
func TestTableI(t *testing.T) {
	type row struct {
		policy Policy
		want   [4]int64 // r0..r3
		total  int64
	}
	rows := []row{
		{PolicyWriteThrough, [4]int64{3, 4, 2, 1}, 10},
		{PolicyWriteBack, [4]int64{1, 2, 1, 1}, 5},
		{PolicyCompilerHints, [4]int64{0, 1, 0, 1}, 2},
	}
	for _, r := range rows {
		prog, err := asm.Parse(tableISource)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		if r.policy == PolicyCompilerHints {
			if _, err := compiler.Annotate(prog, 3); err != nil {
				t.Fatalf("annotate: %v", err)
			}
		}
		st, err := Replay(stream(prog), Config{IW: 3, Policy: r.policy})
		if err != nil {
			t.Fatalf("%v: %v", r.policy, err)
		}
		var total int64
		for reg := 0; reg < 4; reg++ {
			got := st.RFWritesByReg[reg]
			if got != r.want[reg] {
				t.Errorf("%v: r%d RF writes = %d, want %d", r.policy, reg, got, r.want[reg])
			}
			total += got
		}
		if total != r.total {
			t.Errorf("%v: total RF writes over r0..r3 = %d, want %d", r.policy, total, r.total)
		}
	}
}

// TestTableIHints checks the per-instruction hint classes the compiler
// assigns to the Fig. 6 fragment.
func TestTableIHints(t *testing.T) {
	prog, err := asm.Parse(tableISource)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := compiler.Annotate(prog, 3); err != nil {
		t.Fatalf("annotate: %v", err)
	}
	want := map[int]isa.WritebackHint{
		0:  isa.WBRegfileOnly,   // ld r3: first reuse outside window
		1:  isa.WBCollectorOnly, // mov r2: transient chain r3,r4,r6 then killed
		2:  isa.WBCollectorOnly, // mul r1
		3:  isa.WBCollectorOnly, // mad r1
		4:  isa.WBCollectorOnly, // shl r1
		5:  isa.WBCollectorOnly, // mad r0
		6:  isa.WBCollectorOnly, // add r0
		7:  isa.WBCollectorOnly, // add r0 (last use at line 10, then dead)
		8:  isa.WBBoth,          // add r1: reused at 10 in-window AND at setp out-of-window
		9:  isa.WBCollectorOnly, // ld r2: uses at 11,12 then dead
		10: isa.WBCollectorOnly, // shl r4: dead
		11: isa.WBCollectorOnly, // add r4: dead
	}
	for pc, h := range want {
		if got := prog.Code[pc].WBHint; got != h {
			t.Errorf("pc %d (%s): hint = %v, want %v", pc, prog.Code[pc].String(), got, h)
		}
	}
}

// TestBaselinePolicy: no bypassing at all — every read and write goes to
// the RF.
func TestBaselinePolicy(t *testing.T) {
	prog := asm.MustParse(tableISource)
	st, err := Replay(stream(prog), Config{Policy: PolicyBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if st.BypassedRead != 0 {
		t.Errorf("baseline bypassed %d reads", st.BypassedRead)
	}
	if st.CoalescedWrites != 0 || st.DroppedTransient != 0 {
		t.Errorf("baseline coalesced/dropped writes: %d/%d", st.CoalescedWrites, st.DroppedTransient)
	}
	// 12 destination writes in the fragment.
	if st.RFWrites != 12 {
		t.Errorf("baseline RF writes = %d, want 12", st.RFWrites)
	}
}

// TestWindowSlideEviction: a value written and read once must be evicted
// exactly IW instructions after its last access, generating one RF write
// under write-back.
func TestWindowSlideEviction(t *testing.T) {
	src := `
.kernel t
  mov r1, 0x1
  add r2, r1, 0x1
  mov r3, 0x2
  mov r4, 0x3
  mov r5, 0x4
  add r6, r1, 0x5
  exit
`
	prog := asm.MustParse(src)
	st, err := Replay(stream(prog), Config{IW: 3, Policy: PolicyWriteBack})
	if err != nil {
		t.Fatal(err)
	}
	// r1 written at seq1, read at seq2 (bypassed, extends to seq2), then
	// read again at seq6: distance 4 >= 3 so the entry was evicted at
	// seq5 — that read must hit the RF.
	if st.RFWritesByReg[1] != 1 {
		t.Errorf("r1 RF writes = %d, want 1 (window-evict)", st.RFWritesByReg[1])
	}
	if st.BypassedRead != 1 {
		t.Errorf("bypassed reads = %d, want 1 (r1 at seq2 only)", st.BypassedRead)
	}
	// r1's second read (seq6) is the only RF read: seq2's was bypassed
	// and no other instruction has register sources.
	if st.RFReads != 1 {
		t.Errorf("RF reads = %d, want 1", st.RFReads)
	}
}

// TestExtendedWindow: chained reuse keeps extending the residence
// (paper's "Extended Instruction Window").
func TestExtendedWindow(t *testing.T) {
	src := `
.kernel t
  mov r1, 0x1
  nop
  nop
  add r2, r1, 0x1
  nop
  nop
  add r3, r1, 0x1
  nop
  nop
  nop
  add r4, r1, 0x1
  exit
`
	prog := asm.MustParse(src)
	st, err := Replay(stream(prog), Config{IW: 3, Policy: PolicyWriteBack})
	if err != nil {
		t.Fatal(err)
	}
	// r1 written seq1; read seq4 — distance 3 >= IW so the entry was
	// evicted at seq4's slide: the read misses. With IW=4 it would hit.
	if st.BypassedRead != 0 {
		t.Errorf("IW3: bypassed reads = %d, want 0", st.BypassedRead)
	}

	prog2 := asm.MustParse(src)
	st2, err := Replay(stream(prog2), Config{IW: 4, Policy: PolicyWriteBack})
	if err != nil {
		t.Fatal(err)
	}
	// IW=4: read at seq4 hits (gap 3 < 4) extending residence to seq4;
	// read at seq7 hits (gap 3) extending to seq7; read at seq11 misses
	// (gap 4).
	if st2.BypassedRead != 2 {
		t.Errorf("IW4: bypassed reads = %d, want 2 (extension)", st2.BypassedRead)
	}
}

// TestCapacityEviction: a boc-only tagged value forced out by a full
// buffer must still be written to the RF (correctness path, §IV-C).
func TestCapacityEviction(t *testing.T) {
	// r1 is transient per the compiler (used at distance 1, then dead),
	// but a capacity-2 BOC overflows before the reuse happens.
	src := `
.kernel t
  mov r1, 0x7
  add r5, r2, r3
  add r6, r1, r4
  exit
`
	prog := asm.MustParse(src)
	if _, err := compiler.Annotate(prog, 3); err != nil {
		t.Fatal(err)
	}
	if prog.Code[0].WBHint != isa.WBCollectorOnly {
		t.Fatalf("mov r1 hint = %v, want boc-only", prog.Code[0].WBHint)
	}
	st, err := Replay(stream(prog), Config{IW: 3, Capacity: 2, Policy: PolicyCompilerHints})
	if err != nil {
		t.Fatal(err)
	}
	if st.CapacityEvicts == 0 {
		t.Fatalf("expected capacity evictions with a 2-entry BOC")
	}
	// Despite the boc-only tag, r1 must have reached the RF when evicted
	// early... unless it survived. Either way the value is never lost:
	// if r1 was evicted before its read, the read fell back to the RF.
	if st.RFWritesByReg[1] == 0 && st.BypassedRead == 0 {
		t.Errorf("r1 neither written back nor forwarded — value lost")
	}
}

// TestWriteThroughKeepsRFHot: write-through must write the RF for every
// destination and still forward reads.
func TestWriteThroughKeepsRFHot(t *testing.T) {
	src := `
.kernel t
  mov r1, 0x1
  add r2, r1, r1
  add r3, r2, r1
  exit
`
	prog := asm.MustParse(src)
	st, err := Replay(stream(prog), Config{IW: 3, Policy: PolicyWriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	if st.RFWrites != 3 {
		t.Errorf("RF writes = %d, want 3", st.RFWrites)
	}
	// seq2 reads r1 (unique) -> bypass. seq3 reads r2, r1 -> both bypass.
	if st.BypassedRead != 3 {
		t.Errorf("bypassed reads = %d, want 3", st.BypassedRead)
	}
	if st.RFReads != 0 {
		t.Errorf("RF reads = %d, want 0", st.RFReads)
	}
}

// TestConfigNormalize validates defaulting and error paths.
func TestConfigNormalize(t *testing.T) {
	c, err := Config{IW: 3, Policy: PolicyWriteBack}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Capacity != 12 {
		t.Errorf("default capacity = %d, want 12 (4*IW)", c.Capacity)
	}
	if _, err := (Config{IW: 1, Policy: PolicyWriteBack}).Normalize(); err == nil {
		t.Error("IW=1 should be rejected")
	}
	if _, err := NewEngine(Config{IW: 3, Policy: PolicyWriteBack}, nil); err == nil {
		t.Error("nil sink with bypassing policy should be rejected")
	}
	if _, err := NewEngine(Config{Policy: PolicyBaseline}, nil); err != nil {
		t.Errorf("baseline with nil sink should be fine: %v", err)
	}
}

// TestLookupEffectiveValue: the window copy is the architecturally
// current value while dirty.
func TestLookupEffectiveValue(t *testing.T) {
	eng, err := NewEngine(Config{IW: 3, Policy: PolicyWriteBack}, func(uint8, *Value, WriteCause) {})
	if err != nil {
		t.Fatal(err)
	}
	in := &isa.Instruction{Op: isa.OpMov, HasDst: true, Dst: 5, PredReg: isa.PredTrue,
		Srcs: [3]isa.Operand{isa.Imm(9)}, NSrc: 1}
	var plan Plan
	eng.Advance(in, &plan)
	var v Value
	for i := range v {
		v[i] = 42
	}
	eng.Writeback(5, &v, isa.WBBoth, plan.Seq)
	if got := eng.Lookup(5); got == nil || got[0] != 42 {
		t.Fatalf("Lookup(5) = %v; want 42s", got)
	}
	if eng.Lookup(6) != nil {
		t.Error("Lookup(6) should miss")
	}
}

// TestRivalEngineBehaviours pins the two engine behaviours only the
// rival policies select: carfc frees an entry at a compiler-marked last
// read (dropping its dead dirty value without an RF write), and ltrf
// drains dirty values to the RF when the prefetch interval changes.
func TestRivalEngineBehaviours(t *testing.T) {
	var causes []WriteCause
	sink := func(_ uint8, _ *Value, c WriteCause) { causes = append(causes, c) }
	def := &isa.Instruction{Op: isa.OpMov, HasDst: true, Dst: 1, PredReg: isa.PredTrue}
	use := &isa.Instruction{Op: isa.OpAdd, HasDst: true, Dst: 2, NSrc: 2, PredReg: isa.PredTrue}
	use.Srcs[0], use.Srcs[1] = isa.Reg(1), isa.Imm(1)
	use.SrcLastUse = 1

	carfc, err := NewEngine(Config{IW: 1 << 30, Capacity: 6, Policy: PolicyCARFC}, sink)
	if err != nil {
		t.Fatal(err)
	}
	var plan Plan
	carfc.Advance(def, &plan)
	carfc.Writeback(1, &Value{}, isa.WBBoth, plan.Seq)
	if carfc.Advance(use, &plan); plan.NBypassed != 1 {
		t.Fatalf("carfc: last read of r1 not forwarded: %+v", plan)
	}
	if carfc.Lookup(1) != nil {
		t.Error("carfc: last-use read left r1 buffered")
	}
	if st := carfc.Stats(); st.LastUseFrees != 1 || st.DroppedTransient != 1 || st.RFWrites != 0 {
		t.Errorf("carfc: stats %+v, want one free dropping one dead value", st)
	}

	causes = nil
	ltrf, err := NewEngine(Config{IW: 1 << 30, Capacity: 8, Policy: PolicyLTRF}, sink)
	if err != nil {
		t.Fatal(err)
	}
	ltrf.Advance(def, &plan)
	ltrf.Writeback(1, &Value{}, isa.WBBoth, plan.Seq)
	next := *def
	next.Dst, next.Interval = 3, 1
	ltrf.Advance(&next, &plan)
	if st := ltrf.Stats(); st.IntervalDrains != 1 || len(causes) != 1 || causes[0] != CauseIntervalDrain {
		t.Errorf("ltrf: drains %d, RF writes %v; want one interval drain writing r1", st.IntervalDrains, causes)
	}
}
