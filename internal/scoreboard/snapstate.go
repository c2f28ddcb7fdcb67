package scoreboard

import (
	"fmt"

	"bow/internal/snap"
)

// SaveState serializes the hazard state of every warp. The pendingRead
// table is sparse (at most a few outstanding reads per warp), so it is
// written as (reg, count) pairs in ascending register order.
func (s *Board) SaveState(enc *snap.Encoder) {
	enc.U32(uint32(len(s.pendingWrite)))
	for w := range s.pendingWrite {
		for _, bits := range s.pendingWrite[w] {
			enc.U64(bits)
		}
		enc.U8(s.pendingPred[w])
		var n uint32
		for _, c := range s.pendingRead[w] {
			if c != 0 {
				n++
			}
		}
		enc.U32(n)
		for r, c := range s.pendingRead[w] {
			if c != 0 {
				enc.U8(uint8(r))
				enc.Int(c)
			}
		}
	}
}

// LoadState restores hazard state written by SaveState into a board of
// the same warp count.
func (s *Board) LoadState(dec *snap.Decoder) {
	n := dec.Count(1 + 4) // at least pendingPred and the pair count
	if dec.Err() != nil {
		return
	}
	if n != len(s.pendingWrite) {
		dec.Fail(fmt.Errorf("scoreboard: snapshot has %d warps, target has %d", n, len(s.pendingWrite)))
		return
	}
	for w := 0; w < n; w++ {
		for i := range s.pendingWrite[w] {
			s.pendingWrite[w][i] = dec.U64()
		}
		s.pendingPred[w] = dec.U8()
		s.pendingRead[w] = [256]int{}
		pairs := dec.Count(1 + 8) // reg, count
		for p := 0; p < pairs; p++ {
			r := dec.U8()
			c := dec.Int()
			if dec.Err() != nil {
				return
			}
			s.pendingRead[w][r] = c
		}
	}
}
