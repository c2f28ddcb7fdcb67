package core

import "bow/internal/isa"

// Replay drives an Engine over a dynamic instruction stream with no
// timing model in between: every RF read completes immediately and every
// result writes back immediately. It is the measurement harness behind
// the paper's trace-level characterizations (Fig. 3 bypass opportunity
// curves, Table I write counts).
//
// The stream is the warp's dynamic instruction sequence (loops already
// unrolled by execution or by the caller). Values are irrelevant for
// counting, so zeroes flow through.
func Replay(stream []*isa.Instruction, cfg Config) (Stats, error) {
	eng, err := NewEngine(cfg, func(uint8, *Value, WriteCause) {})
	if err != nil {
		return Stats{}, err
	}
	var plan Plan
	var zero Value
	for _, in := range stream {
		eng.Advance(in, &plan)
		for i := 0; i < plan.NNeedRF; i++ {
			eng.FillFromRF(plan.NeedRF[i], &zero, plan.Seq)
		}
		if d, ok := in.DstReg(); ok {
			eng.Writeback(d, &zero, in.WBHint, plan.Seq)
		}
	}
	eng.Flush()
	return eng.Stats(), nil
}
