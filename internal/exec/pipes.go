package exec

import (
	"bow/internal/isa"
)

// PipeConfig sizes the functional-unit pipelines of one SM.
type PipeConfig struct {
	ALULatency int
	FPULatency int
	SFULatency int
	NumALU     int // warp instructions accepted per cycle
	NumFPU     int
	NumSFU     int
	NumLSU     int // memory instructions accepted per cycle
	NumCtrl    int // branch/control unit slots per cycle
}

// Pipes tracks per-cycle issue slots of the functional units. Latency is
// applied by the SM's event queue; Pipes only answers "can another warp
// instruction of this class start this cycle?".
//
//bow:state
type Pipes struct {
	cfg   PipeConfig //bow:resetskip -- design-point config, fixed at construction; Reset restores slot state only
	cycle int64
	used  [5]int // slots consumed this cycle per class (alu/fpu/sfu/mem/ctrl)
}

// NewPipes creates the issue-slot tracker.
func NewPipes(cfg PipeConfig) *Pipes {
	return &Pipes{cfg: cfg}
}

func classIndex(c isa.FUClass) int {
	switch c {
	case isa.FUAlu:
		return 0
	case isa.FUFpu:
		return 1
	case isa.FUSfu:
		return 2
	case isa.FUMem:
		return 3
	default:
		return 4
	}
}

// Reset restores the tracker to its freshly-constructed state (cycle
// zero, all slots free) for device recycling.
func (p *Pipes) Reset() {
	p.cycle = 0
	p.used = [5]int{}
}

// NewCycle resets the per-cycle slot counters.
func (p *Pipes) NewCycle(cycle int64) {
	p.cycle = cycle
	p.used = [5]int{}
}

// TryIssue consumes an issue slot for the class if one is free this
// cycle.
func (p *Pipes) TryIssue(c isa.FUClass) bool {
	idx := classIndex(c)
	var cap int
	switch idx {
	case 0:
		cap = p.cfg.NumALU
	case 1:
		cap = p.cfg.NumFPU
	case 2:
		cap = p.cfg.NumSFU
	case 3:
		cap = p.cfg.NumLSU
	default:
		cap = p.cfg.NumCtrl
	}
	if p.used[idx] >= cap {
		return false
	}
	p.used[idx]++
	return true
}

// Latency returns the execution latency of the class (memory latency is
// computed by the cache hierarchy instead).
func (p *Pipes) Latency(c isa.FUClass) int {
	switch classIndex(c) {
	case 1:
		return p.cfg.FPULatency
	case 2:
		return p.cfg.SFULatency
	default:
		return p.cfg.ALULatency
	}
}
