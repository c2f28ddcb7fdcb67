package scheduler

import (
	"fmt"

	"bow/internal/snap"
)

// SaveState serializes the scheduler's decision state: the GTO greedy
// warp and the LRR rotation cursor. The ranking buffer is scratch that
// every Order call rebuilds.
func (s *Scheduler) SaveState(enc *snap.Encoder) {
	enc.U8(uint8(s.kind))
	enc.Int(len(s.warps))
	enc.Int(s.greedy)
	enc.Int(s.rrNext)
}

// LoadState restores scheduler state written by SaveState into a
// scheduler built over the same warp partition.
func (s *Scheduler) LoadState(dec *snap.Decoder) {
	kind := Kind(dec.U8())
	warps := dec.Int()
	if dec.Err() != nil {
		return
	}
	if kind != s.kind || warps != len(s.warps) {
		dec.Fail(fmt.Errorf("scheduler: snapshot kind=%d warps=%d, target kind=%d warps=%d",
			kind, warps, s.kind, len(s.warps)))
		return
	}
	s.greedy = dec.Int()
	s.rrNext = dec.Int()
}
