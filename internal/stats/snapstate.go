package stats

import (
	"slices"

	"bow/internal/snap"
)

// State walks the histogram for a simulator checkpoint. The overflow
// map is written in ascending key order, so identical histograms
// always produce identical bytes. A load leaves it nil when empty,
// matching a histogram that never saw an overflow sample: restored
// state must be indistinguishable from cold state for the bit-identity
// checks.
func (h *Histogram) State(st *snap.State) {
	st.I64(&h.total)
	for i := range h.dense {
		st.I64(&h.dense[i])
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	n := len(keys)
	st.Count(&n, 16) // key and count, 8 bytes each
	if st.Loading() {
		keys, h.counts = make([]int, n), nil
		if n > 0 {
			h.counts = make(map[int]int64, n)
		}
	}
	for _, k := range keys {
		c := h.counts[k]
		st.Int(&k)
		st.I64(&c)
		if st.Loading() {
			h.counts[k] = c
		}
	}
}
