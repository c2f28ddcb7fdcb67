package exec

import (
	"math"
	"testing"
	"testing/quick"

	"bow/internal/core"
	"bow/internal/isa"
)

const allLanes = 0xFFFFFFFF

// bcast is Broadcast as a value, for building operand tables.
func bcast(v uint32) core.Value {
	var out core.Value
	Broadcast(&out, v)
	return out
}

func evalOne(t *testing.T, op isa.Opcode, a, b, c uint32) uint32 {
	t.Helper()
	in := &isa.Instruction{Op: op, HasDst: true, Dst: 1, PredReg: isa.PredTrue, NSrc: 3}
	srcs := [isa.MaxSrcOperands]core.Value{bcast(a), bcast(b), bcast(c)}
	out, _, err := evalV(in, srcs, 0, allLanes)
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	return out[0]
}

// evalV adapts the in-place Eval to the value-returning shape the
// table-driven tests were written against.
func evalV(in *isa.Instruction, srcs [isa.MaxSrcOperands]core.Value, predSrc, active uint32) (core.Value, uint32, error) {
	var out core.Value
	pred, err := Eval(in, &srcs, predSrc, active, &out)
	return out, pred, err
}

func TestIntegerOps(t *testing.T) {
	cases := []struct {
		op      isa.Opcode
		a, b, c uint32
		want    uint32
	}{
		{isa.OpMov, 7, 0, 0, 7},
		{isa.OpAdd, 3, 4, 0, 7},
		{isa.OpSub, 3, 4, 0, 0xFFFFFFFF},
		{isa.OpMul, 6, 7, 0, 42},
		{isa.OpMad, 2, 3, 4, 10},
		{isa.OpShl, 1, 4, 0, 16},
		{isa.OpShl, 1, 36, 0, 16}, // shift masked to 5 bits
		{isa.OpShr, 0x80000000, 31, 0, 1},
		{isa.OpAnd, 0xF0F0, 0xFF00, 0, 0xF000},
		{isa.OpOr, 0x0F, 0xF0, 0, 0xFF},
		{isa.OpXor, 0xFF, 0x0F, 0, 0xF0},
		{isa.OpMin, 5, ^uint32(2), 0, ^uint32(2)}, // signed: -3 < 5
		{isa.OpMax, 5, ^uint32(2), 0, 5},
		{isa.OpAbs, ^uint32(4), 0, 0, 5}, // |-5| = 5
	}
	for _, cse := range cases {
		if got := evalOne(t, cse.op, cse.a, cse.b, cse.c); got != cse.want {
			t.Errorf("%v(%#x,%#x,%#x) = %#x, want %#x", cse.op, cse.a, cse.b, cse.c, got, cse.want)
		}
	}
}

func TestFloatOps(t *testing.T) {
	f := math.Float32bits
	cases := []struct {
		op      isa.Opcode
		a, b, c uint32
		want    uint32
	}{
		{isa.OpFAdd, f(1.5), f(2.25), 0, f(3.75)},
		{isa.OpFSub, f(1.5), f(2.25), 0, f(-0.75)},
		{isa.OpFMul, f(3), f(0.5), 0, f(1.5)},
		{isa.OpFFma, f(2), f(3), f(1), f(7)},
		{isa.OpFMin, f(2), f(-3), 0, f(-3)},
		{isa.OpFMax, f(2), f(-3), 0, f(2)},
		{isa.OpI2F, ^uint32(0), 0, 0, f(-1)},   // int -1 -> -1.0f
		{isa.OpF2I, f(-2.9), 0, 0, ^uint32(1)}, // trunc toward zero: -2
		{isa.OpRcp, f(4), 0, 0, f(0.25)},
		{isa.OpSqrt, f(9), 0, 0, f(3)},
		{isa.OpEx2, f(3), 0, 0, f(8)},
		{isa.OpLg2, f(8), 0, 0, f(3)},
	}
	for _, cse := range cases {
		if got := evalOne(t, cse.op, cse.a, cse.b, cse.c); got != cse.want {
			t.Errorf("%v = %#x, want %#x", cse.op, got, cse.want)
		}
	}
}

func TestSetpAndSel(t *testing.T) {
	in := &isa.Instruction{Op: isa.OpSetp, Cmp: isa.CmpLT, HasDstPred: true,
		PredReg: isa.PredTrue, NSrc: 2}
	var a, b core.Value
	for l := range a {
		a[l] = uint32(l)
		b[l] = 16
	}
	_, pred, err := evalV(in, [isa.MaxSrcOperands]core.Value{a, b}, 0, allLanes)
	if err != nil {
		t.Fatal(err)
	}
	if pred != 0x0000FFFF {
		t.Errorf("setp.lt lanes = %#x, want 0x0000FFFF", pred)
	}

	sel := &isa.Instruction{Op: isa.OpSel, HasDst: true, Dst: 1, PredReg: isa.PredTrue, NSrc: 3}
	out, _, err := evalV(sel, [isa.MaxSrcOperands]core.Value{bcast(10), bcast(20)}, pred, allLanes)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 10 || out[31] != 20 {
		t.Errorf("sel lanes = %d/%d, want 10/20", out[0], out[31])
	}
}

func TestSetpAllComparisons(t *testing.T) {
	mk := func(cmp isa.CmpOp, a, b uint32) bool {
		in := &isa.Instruction{Op: isa.OpSetp, Cmp: cmp, HasDstPred: true,
			PredReg: isa.PredTrue, NSrc: 2}
		_, pred, err := evalV(in, [isa.MaxSrcOperands]core.Value{bcast(a), bcast(b)}, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pred&1 != 0
	}
	neg2 := ^uint32(1)
	if !mk(isa.CmpEQ, 5, 5) || mk(isa.CmpEQ, 5, 6) {
		t.Error("eq wrong")
	}
	if !mk(isa.CmpNE, 5, 6) || mk(isa.CmpNE, 5, 5) {
		t.Error("ne wrong")
	}
	if !mk(isa.CmpLT, neg2, 3) { // signed -2 < 3
		t.Error("lt must be signed")
	}
	if !mk(isa.CmpLE, 3, 3) || !mk(isa.CmpGE, 3, 3) {
		t.Error("le/ge wrong")
	}
	if !mk(isa.CmpGT, 3, neg2) {
		t.Error("gt must be signed")
	}
}

func TestInactiveLanesUntouched(t *testing.T) {
	in := &isa.Instruction{Op: isa.OpMov, HasDst: true, Dst: 1, PredReg: isa.PredTrue, NSrc: 1}
	out, _, err := evalV(in, [isa.MaxSrcOperands]core.Value{bcast(9)}, 0, 0x1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 9 || out[1] != 0 {
		t.Errorf("masking wrong: %d/%d", out[0], out[1])
	}
}

func TestEvalRejectsNonALU(t *testing.T) {
	in := &isa.Instruction{Op: isa.OpLd, PredReg: isa.PredTrue}
	if _, _, err := evalV(in, [isa.MaxSrcOperands]core.Value{}, 0, allLanes); err == nil {
		t.Error("memory op accepted by Eval")
	}
}

func TestMerge(t *testing.T) {
	old := bcast(1)
	m := bcast(2)
	Merge(&m, &old, 0x3)
	if m[0] != 2 || m[1] != 2 || m[2] != 1 {
		t.Errorf("merge lanes wrong: %v", m[:3])
	}
	// The full- and empty-mask fast paths.
	full, empty := bcast(2), bcast(2)
	Merge(&full, &old, allLanes)
	Merge(&empty, &old, 0)
	if full != bcast(2) || empty != old {
		t.Errorf("fast paths wrong: full %v, empty %v", full[:2], empty[:2])
	}
}

// Property: merging result b over old a keeps b under a full mask, a
// under an empty one, and is lane-local in between.
func TestMergeProperty(t *testing.T) {
	f := func(a, b uint32, mask uint32) bool {
		va, m := bcast(a), bcast(b)
		Merge(&m, &va, mask)
		for lane := 0; lane < isa.WarpSize; lane++ {
			want := a
			if mask&(1<<uint(lane)) != 0 {
				want = b
			}
			if m[lane] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mad == mul+add for all uint32 inputs (wrapping).
func TestMadProperty(t *testing.T) {
	f := func(a, b, c uint32) bool {
		in := &isa.Instruction{Op: isa.OpMad, HasDst: true, Dst: 1, PredReg: isa.PredTrue, NSrc: 3}
		out, _, err := evalV(in, [isa.MaxSrcOperands]core.Value{bcast(a), bcast(b), bcast(c)}, 0, 1)
		return err == nil && out[0] == a*b+c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPipes(t *testing.T) {
	p := NewPipes(PipeConfig{ALULatency: 4, FPULatency: 5, SFULatency: 16,
		NumALU: 2, NumFPU: 1, NumSFU: 1, NumLSU: 1, NumCtrl: 1})
	p.NewCycle(1)
	if !p.TryIssue(isa.FUAlu) || !p.TryIssue(isa.FUAlu) {
		t.Error("two ALU slots should fit")
	}
	if p.TryIssue(isa.FUAlu) {
		t.Error("third ALU slot should fail")
	}
	if !p.TryIssue(isa.FUCtrl) {
		t.Error("ctrl has its own slots")
	}
	if !p.TryIssue(isa.FUMem) || p.TryIssue(isa.FUMem) {
		t.Error("LSU slot accounting wrong")
	}
	p.NewCycle(2)
	if !p.TryIssue(isa.FUAlu) {
		t.Error("slots should reset on new cycle")
	}
	if p.Latency(isa.FUFpu) != 5 || p.Latency(isa.FUSfu) != 16 || p.Latency(isa.FUAlu) != 4 {
		t.Error("latencies wrong")
	}
}
