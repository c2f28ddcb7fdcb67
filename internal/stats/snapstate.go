package stats

import (
	"sort"

	"bow/internal/snap"
)

// SaveState serializes the histogram for a simulator checkpoint. The
// overflow map is written in ascending key order so identical
// histograms always produce identical bytes.
func (h *Histogram) SaveState(enc *snap.Encoder) {
	enc.I64(h.total)
	for _, c := range h.dense {
		enc.I64(c)
	}
	keys := make([]int, 0, len(h.counts))
	for k := range h.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	enc.U32(uint32(len(keys)))
	for _, k := range keys {
		enc.Int(k)
		enc.I64(h.counts[k])
	}
}

// LoadState restores a histogram written by SaveState. The overflow map
// stays nil when empty, matching a histogram that never saw an overflow
// sample — restored state must be indistinguishable from cold state
// for the bit-identity checks.
func (h *Histogram) LoadState(dec *snap.Decoder) {
	h.total = dec.I64()
	for i := range h.dense {
		h.dense[i] = dec.I64()
	}
	n := dec.Count(16) // key and count, 8 bytes each
	h.counts = nil
	if n > 0 {
		h.counts = make(map[int]int64, n)
		for i := 0; i < n; i++ {
			k := dec.Int()
			h.counts[k] = dec.I64()
		}
	}
}
