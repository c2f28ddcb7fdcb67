package core

import (
	"testing"

	"bow/internal/isa"
)

// allocWorkload drives one engine through a register-churning loop that
// exercises every hot path: misses reserving pending slots, fills,
// bypassed re-reads, writebacks installing entries, consolidation, and
// both window and capacity evictions.
func allocWorkload(eng *Engine) {
	ins := [4]*isa.Instruction{
		{Op: isa.OpAdd, PredReg: isa.PredTrue, HasDst: true, Dst: 1,
			Srcs: [3]isa.Operand{isa.Reg(2), isa.Reg(3)}, NSrc: 2},
		{Op: isa.OpMul, PredReg: isa.PredTrue, HasDst: true, Dst: 2,
			Srcs: [3]isa.Operand{isa.Reg(1), isa.Reg(4)}, NSrc: 2},
		{Op: isa.OpMov, PredReg: isa.PredTrue, HasDst: true, Dst: 3,
			Srcs: [3]isa.Operand{isa.Reg(9)}, NSrc: 1},
		{Op: isa.OpXor, PredReg: isa.PredTrue, HasDst: true, Dst: 1,
			Srcs: [3]isa.Operand{isa.Reg(7), isa.Reg(8)}, NSrc: 2},
	}
	v, plan := &allocScratch.v, &allocScratch.plan
	for i := 0; i < 32; i++ {
		in := ins[i%len(ins)]
		eng.Advance(in, plan)
		for j := 0; j < plan.NNeedRF; j++ {
			eng.FillFromRF(plan.NeedRF[j], v, plan.Seq)
		}
		eng.Writeback(in.Dst, v, in.WBHint, plan.Seq)
	}
}

// allocScratch is allocWorkload's operand value and plan. Values reach
// the write sink by pointer, so a local would escape and charge every
// run a heap allocation the engine itself never makes.
var allocScratch struct {
	v    Value
	plan Plan
}

// TestSteadyStateAllocs pins the hot-path allocation fix: after the
// preallocated entry slab warms up, the window engine must not allocate
// at all, for any policy. This is the regression test for the
// bow-wt/bow-wr allocs-per-cycle bug BENCH_simrate.json exposed (1.94
// and 1.47 allocs/cycle vs 0.49 for baseline).
func TestSteadyStateAllocs(t *testing.T) {
	for _, pol := range []Policy{PolicyBaseline, PolicyWriteThrough,
		PolicyWriteBack, PolicyCompilerHints} {
		for _, cap := range []int{2, 12} { // force capacity evictions, then roomy
			eng, err := NewEngine(Config{IW: 3, Capacity: cap, Policy: pol},
				func(uint8, *Value, WriteCause) {})
			if err != nil {
				t.Fatal(err)
			}
			allocWorkload(eng) // warm the free list
			if got := testing.AllocsPerRun(50, func() { allocWorkload(eng) }); got != 0 {
				t.Errorf("%v cap=%d: %.1f allocs per 32-instruction run, want 0",
					pol, cap, got)
			}
		}
	}
}

// TestSteadyStateAllocsDrain covers the flush recycling path: entries
// released by Flush must return to the free list, not leak and force
// fresh heap allocations.
func TestSteadyStateAllocsDrain(t *testing.T) {
	eng, err := NewEngine(Config{IW: 3, Policy: PolicyWriteBack},
		func(uint8, *Value, WriteCause) {})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		allocWorkload(eng)
		eng.Flush()
	}
	cycle()
	if got := testing.AllocsPerRun(50, cycle); got != 0 {
		t.Errorf("flush cycle: %.1f allocs, want 0", got)
	}
}
