package core

import (
	"math/rand"
	"testing"

	"bow/internal/asm"
	"bow/internal/compiler"
	"bow/internal/isa"
)

// genProgram builds a random straight-line ALU program over a small
// register pool. Straight-line keeps the dynamic stream equal to the
// static one, so Replay is exact.
func genProgram(r *rand.Rand, n int) *asm.Program {
	ops := []isa.Opcode{isa.OpMov, isa.OpAdd, isa.OpMul, isa.OpMad, isa.OpXor, isa.OpShl}
	var p asm.Program
	reg := func() isa.Operand { return isa.Reg(uint8(r.Intn(10))) }
	for i := 0; i < n; i++ {
		op := ops[r.Intn(len(ops))]
		in := isa.Instruction{Op: op, PredReg: isa.PredTrue, HasDst: true,
			Dst: uint8(r.Intn(10))}
		nsrc := 2
		switch op {
		case isa.OpMov:
			nsrc = 1
		case isa.OpMad:
			nsrc = 3
		}
		for s := 0; s < nsrc; s++ {
			if r.Intn(4) == 0 {
				in.Srcs[s] = isa.Imm(r.Uint32())
			} else {
				in.Srcs[s] = reg()
			}
			in.NSrc++
		}
		in.PC = len(p.Code)
		p.Code = append(p.Code, in)
	}
	p.Code = append(p.Code, isa.Instruction{
		Op: isa.OpExit, PredReg: isa.PredTrue, PC: len(p.Code), Target: -1})
	p.Labels = map[string]int{}
	return &p
}

func toStream(p *asm.Program) []*isa.Instruction {
	out := make([]*isa.Instruction, 0, len(p.Code))
	for i := range p.Code {
		out = append(out, &p.Code[i])
	}
	return out
}

// TestPolicyInvariantsRandom replays random programs under every policy
// and checks the structural invariants that must hold regardless of the
// program:
//
//   - total operand reads are policy-independent;
//   - total destination writes are policy-independent;
//   - write-through writes the RF for every destination write;
//   - RF writes never increase as the policy gets smarter:
//     hints <= write-back <= write-through;
//   - reads served (bypassed + RF) always equals total reads.
func TestPolicyInvariantsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20200814))
	for trial := 0; trial < 200; trial++ {
		n := 5 + r.Intn(40)
		prog := genProgram(r, n)

		hinted := prog.Clone()
		if _, err := compiler.Annotate(hinted, 3); err != nil {
			t.Fatalf("trial %d: annotate: %v", trial, err)
		}

		run := func(p *asm.Program, pol Policy) Stats {
			st, err := Replay(toStream(p), Config{IW: 3, Policy: pol})
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			return st
		}
		base := run(prog, PolicyBaseline)
		wt := run(prog, PolicyWriteThrough)
		wb := run(prog, PolicyWriteBack)
		hints := run(hinted, PolicyCompilerHints)

		if base.TotalReads() != wt.TotalReads() || wt.TotalReads() != wb.TotalReads() ||
			wb.TotalReads() != hints.TotalReads() {
			t.Fatalf("trial %d: total reads differ: %d/%d/%d/%d",
				trial, base.TotalReads(), wt.TotalReads(), wb.TotalReads(), hints.TotalReads())
		}
		if wt.TotalWrites() != wb.TotalWrites() || wb.TotalWrites() != hints.TotalWrites() {
			t.Fatalf("trial %d: total writes differ: %d/%d/%d",
				trial, wt.TotalWrites(), wb.TotalWrites(), hints.TotalWrites())
		}
		if wt.RFWrites != wt.TotalWrites() {
			t.Fatalf("trial %d: write-through bypassed a write (%d of %d)",
				trial, wt.RFWrites, wt.TotalWrites())
		}
		if wb.RFWrites > wt.RFWrites {
			t.Fatalf("trial %d: write-back wrote more than write-through (%d > %d)",
				trial, wb.RFWrites, wt.RFWrites)
		}
		if hints.RFWrites > wb.RFWrites {
			t.Fatalf("trial %d: hints wrote more than write-back (%d > %d)",
				trial, hints.RFWrites, wb.RFWrites)
		}
		for _, st := range []Stats{wt, wb, hints} {
			if st.BypassedRead+st.RFReads != st.TotalReads() {
				t.Fatalf("trial %d: read accounting broken", trial)
			}
		}
		if base.BypassedRead != 0 {
			t.Fatalf("trial %d: baseline bypassed reads", trial)
		}
		// Read forwarding is policy-independent between WT and WB: both
		// buffer every access.
		if wt.BypassedRead != wb.BypassedRead {
			t.Fatalf("trial %d: WT and WB disagree on bypassed reads (%d vs %d)",
				trial, wt.BypassedRead, wb.BypassedRead)
		}
	}
}

// TestCapacityNeverLosesWrites replays random programs with tiny BOC
// capacities: however small the buffer, the sum of RF writes +
// coalesced + transient-drops + flush-drops must cover every
// destination write — nothing disappears.
func TestCapacityNeverLosesWrites(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		prog := genProgram(r, 5+r.Intn(30))
		hinted := prog.Clone()
		if _, err := compiler.Annotate(hinted, 3); err != nil {
			t.Fatal(err)
		}
		destWrites := int64(0)
		for i := range prog.Code {
			if _, ok := prog.Code[i].DstReg(); ok {
				destWrites++
			}
		}
		for _, capa := range []int{1, 2, 3, 6, 12} {
			st, err := Replay(toStream(hinted), Config{IW: 3, Capacity: capa, Policy: PolicyCompilerHints})
			if err != nil {
				t.Fatal(err)
			}
			if st.TotalWrites() != destWrites {
				t.Fatalf("trial %d cap %d: %d writes accounted, want %d",
					trial, capa, st.TotalWrites(), destWrites)
			}
		}
	}
}

// TestWindowMonotonicity: a larger window can only bypass more reads
// (on straight-line code with unlimited capacity).
func TestWindowMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		prog := genProgram(r, 10+r.Intn(40))
		prev := int64(-1)
		for _, iw := range []int{2, 3, 4, 5, 6, 7} {
			st, err := Replay(toStream(prog), Config{IW: iw, Capacity: 64, Policy: PolicyWriteBack})
			if err != nil {
				t.Fatal(err)
			}
			if st.BypassedRead < prev {
				t.Fatalf("trial %d: bypassed reads shrank from %d to %d at IW %d",
					trial, prev, st.BypassedRead, iw)
			}
			prev = st.BypassedRead
		}
	}
}

// TestOccupancyBounded: the window never holds more entries than its
// capacity allows.
func TestOccupancyBounded(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		prog := genProgram(r, 30)
		for _, capa := range []int{2, 4, 6} {
			eng, err := NewEngine(Config{IW: 3, Capacity: capa, Policy: PolicyWriteBack}, func(uint8, *Value, WriteCause) {})
			if err != nil {
				t.Fatal(err)
			}
			var plan Plan
			var zero Value
			for _, in := range toStream(prog) {
				eng.Advance(in, &plan)
				for i := 0; i < plan.NNeedRF; i++ {
					eng.FillFromRF(plan.NeedRF[i], &zero, plan.Seq)
				}
				if d, ok := in.DstReg(); ok {
					eng.Writeback(d, &zero, in.WBHint, plan.Seq)
				}
				if occ := eng.Occupancy(); occ > capa {
					t.Fatalf("trial %d: occupancy %d exceeds capacity %d", trial, occ, capa)
				}
			}
		}
	}
}

// TestHintsEliminateAtLeastTransients: on random straight-line code the
// hint policy must drop every statically-transient value (default
// capacity, no early evictions).
func TestHintsEliminateAtLeastTransients(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 100; trial++ {
		prog := genProgram(r, 20)
		hinted := prog.Clone()
		st, err := compiler.Annotate(hinted, 3)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Replay(toStream(hinted), Config{IW: 3, Capacity: 64, Policy: PolicyCompilerHints})
		if err != nil {
			t.Fatal(err)
		}
		// Every statically boc-only write must end up dropped or
		// coalesced — never in the RF.
		if got := rep.DroppedTransient + rep.CoalescedWrites + rep.FlushDropped; got < int64(st.CollectorOnly) {
			t.Fatalf("trial %d: %d transient writes but only %d eliminated",
				trial, st.CollectorOnly, got)
		}
		if rep.RFWriteCauses[CauseCapacityEvict] != 0 {
			t.Fatalf("trial %d: unexpected capacity evictions at capacity 64", trial)
		}
	}
}
