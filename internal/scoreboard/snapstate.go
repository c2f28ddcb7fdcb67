package scoreboard

import (
	"fmt"

	"bow/internal/snap"
)

// State walks the hazard state of every warp into a board of the same
// warp count. The pendingRead table is sparse (at most a few
// outstanding reads per warp), so it is written as (reg, count) pairs
// in ascending register order.
func (s *Board) State(st *snap.State) {
	n := len(s.pendingWrite)
	st.Count(&n, 1+4) // at least pendingPred and the pair count
	if n != len(s.pendingWrite) {
		st.Fail(fmt.Errorf("scoreboard: snapshot has %d warps, target has %d", n, len(s.pendingWrite)))
		return
	}
	for w := range s.pendingWrite {
		for i := range s.pendingWrite[w] {
			st.U64(&s.pendingWrite[w][i])
		}
		st.U8(&s.pendingPred[w])
		reads := &s.pendingRead[w]
		if st.Loading() {
			*reads = [256]int{}
		}
		pairs := 0
		for _, c := range reads {
			if c != 0 {
				pairs++
			}
		}
		st.Count(&pairs, 1+8) // reg, count
		// A save visits the non-zero registers; a load, whose table is
		// clear, visits one pair per step. A count above 256 leaves
		// bytes unread, which fails the section check.
		for r := 0; r < len(reads) && pairs > 0; r++ {
			reg, c := uint8(r), reads[r]
			if c == 0 && !st.Loading() {
				continue
			}
			st.U8(&reg)
			st.Int(&c)
			reads[reg] = c
			pairs--
		}
	}
}
