// Package exec provides the functional semantics of the ISA (per-lane
// evaluation of warp instructions) and the functional-unit timing model
// (issue-width-limited pipelines with per-class latencies).
package exec

import (
	"fmt"
	"math"

	"bow/internal/core"
	"bow/internal/isa"
)

// Eval computes the warp-wide result of a non-memory, non-control
// instruction, writing it into *out (whose inactive lanes are left as
// given — callers pass a zeroed destination). srcs holds the resolved
// source operand values in operand order (immediates and specials
// already broadcast/expanded by the caller); predSrc holds the per-lane
// bits of a predicate source operand (OpSel). Only lanes set in active
// are meaningful in the result. Sources and destination are passed by
// pointer: a warp-wide Value is 128 bytes, and this is the hottest
// call in the simulator.
//
// For OpSetp the result is returned as per-lane predicate bits; *out
// is not written.
func Eval(in *isa.Instruction, srcs *[isa.MaxSrcOperands]core.Value, predSrc uint32, active uint32, out *core.Value) (uint32, error) {
	var predOut uint32

	f32 := math.Float32frombits
	b32 := math.Float32bits

	for lane := 0; lane < isa.WarpSize; lane++ {
		if active&(1<<uint(lane)) == 0 {
			continue
		}
		a := srcs[0][lane]
		b := srcs[1][lane]
		c := srcs[2][lane]

		switch in.Op {
		case isa.OpNop:
		case isa.OpMov:
			out[lane] = a
		case isa.OpAdd:
			out[lane] = a + b
		case isa.OpSub:
			out[lane] = a - b
		case isa.OpMul:
			out[lane] = a * b
		case isa.OpMad:
			out[lane] = a*b + c
		case isa.OpShl:
			out[lane] = a << (b & 31)
		case isa.OpShr:
			out[lane] = a >> (b & 31)
		case isa.OpAnd:
			out[lane] = a & b
		case isa.OpOr:
			out[lane] = a | b
		case isa.OpXor:
			out[lane] = a ^ b
		case isa.OpMin:
			if int32(a) < int32(b) {
				out[lane] = a
			} else {
				out[lane] = b
			}
		case isa.OpMax:
			if int32(a) > int32(b) {
				out[lane] = a
			} else {
				out[lane] = b
			}
		case isa.OpAbs:
			if int32(a) < 0 {
				out[lane] = uint32(-int32(a))
			} else {
				out[lane] = a
			}
		case isa.OpFAdd:
			out[lane] = b32(f32(a) + f32(b))
		case isa.OpFSub:
			out[lane] = b32(f32(a) - f32(b))
		case isa.OpFMul:
			out[lane] = b32(f32(a) * f32(b))
		case isa.OpFFma:
			out[lane] = b32(f32(a)*f32(b) + f32(c))
		case isa.OpFMin:
			out[lane] = b32(float32(math.Min(float64(f32(a)), float64(f32(b)))))
		case isa.OpFMax:
			out[lane] = b32(float32(math.Max(float64(f32(a)), float64(f32(b)))))
		case isa.OpI2F:
			out[lane] = b32(float32(int32(a)))
		case isa.OpF2I:
			out[lane] = uint32(int32(f32(a)))
		case isa.OpRcp:
			out[lane] = b32(1 / f32(a))
		case isa.OpSqrt:
			out[lane] = b32(float32(math.Sqrt(float64(f32(a)))))
		case isa.OpEx2:
			out[lane] = b32(float32(math.Exp2(float64(f32(a)))))
		case isa.OpLg2:
			out[lane] = b32(float32(math.Log2(float64(f32(a)))))
		case isa.OpSin:
			out[lane] = b32(float32(math.Sin(float64(f32(a)))))
		case isa.OpCos:
			out[lane] = b32(float32(math.Cos(float64(f32(a)))))
		case isa.OpSetp:
			var t bool
			switch in.Cmp {
			case isa.CmpEQ:
				t = a == b
			case isa.CmpNE:
				t = a != b
			case isa.CmpLT:
				t = int32(a) < int32(b)
			case isa.CmpLE:
				t = int32(a) <= int32(b)
			case isa.CmpGT:
				t = int32(a) > int32(b)
			case isa.CmpGE:
				t = int32(a) >= int32(b)
			}
			if t {
				predOut |= 1 << uint(lane)
			}
		case isa.OpSel:
			if predSrc&(1<<uint(lane)) != 0 {
				out[lane] = a
			} else {
				out[lane] = b
			}
		default:
			return 0, fmt.Errorf("exec: Eval cannot execute %s", in.Op)
		}
	}
	return predOut, nil
}

// Broadcast expands a scalar to a warp-wide value, written into *out.
func Broadcast(out *core.Value, v uint32) {
	for i := range out {
		out[i] = v
	}
}

// Merge turns *result into the architecturally merged destination value
// of a predicated or divergent write, in place: lanes set in mask keep
// the new result, the rest take the old destination value from *old.
// A full mask (the common, convergent case) touches nothing.
func Merge(result, old *core.Value, mask uint32) {
	switch mask {
	case 1<<isa.WarpSize - 1:
		return
	case 0:
		*result = *old
		return
	}
	for lane := 0; lane < isa.WarpSize; lane++ {
		if mask&(1<<uint(lane)) == 0 {
			result[lane] = old[lane]
		}
	}
}
