package scheduler

import (
	"fmt"

	"bow/internal/snap"
)

// State walks the scheduler's decision state: the GTO greedy warp and
// the LRR rotation cursor, behind the kind and warp count a load
// checks against the target (built over the same warp partition). The
// ranking buffer is scratch that every Order call rebuilds.
func (s *Scheduler) State(st *snap.State) {
	kind, warps := uint8(s.kind), len(s.warps)
	st.U8(&kind)
	st.Int(&warps)
	if Kind(kind) != s.kind || warps != len(s.warps) {
		st.Fail(fmt.Errorf("scheduler: snapshot kind=%d warps=%d, target kind=%d warps=%d",
			kind, warps, s.kind, len(s.warps)))
		return
	}
	st.Int(&s.greedy)
	st.Int(&s.rrNext)
}
