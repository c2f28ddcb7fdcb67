package mem

import (
	"fmt"
	"slices"

	"bow/internal/snap"
)

// State walks the merged page set (base + overlay, overlay winning) in
// ascending page order, so identical memory contents always produce
// identical bytes regardless of fork history. A load replaces the
// contents: pages land in the private overlay; Seal the memory
// afterwards to share the restored image copy-on-write across several
// simulations.
func (m *Memory) State(st *snap.State) {
	var pns []uint32
	if st.Loading() {
		m.pages, m.base = make(map[uint32]*[pageWords]uint32), nil
		m.last, m.lastPage, m.lastRO = nil, ^uint32(0), false
	} else {
		pns = make([]uint32, 0, len(m.pages)+len(m.base))
		for pn := range m.pages {
			pns = append(pns, pn)
		}
		for pn := range m.base {
			if m.pages[pn] == nil {
				pns = append(pns, pn)
			}
		}
		slices.Sort(pns)
	}
	n := len(pns)
	st.Count(&n, 4+4*pageWords) // page number, page words
	for i := range n {
		var pn uint32
		var p *[pageWords]uint32
		if st.Loading() {
			p = new([pageWords]uint32)
		} else if pn = pns[i]; m.pages[pn] != nil {
			p = m.pages[pn]
		} else {
			p = m.base[pn]
		}
		st.U32(&pn)
		st.Words(p[:])
		if st.Loading() && st.Err() == nil {
			m.pages[pn] = p
		}
	}
}

// State walks the scratchpad contents.
func (s *SharedMemory) State(st *snap.State) { st.U32s(&s.words) }

// State walks the tag array, LRU stamps, and hit/miss counters behind
// the geometry: a snapshot only restores onto an identically sized
// cache.
func (c *Cache) State(st *snap.State) {
	sets, assoc := c.sets, c.assoc
	st.Int(&sets)
	st.Int(&assoc)
	if sets != c.sets || assoc != c.assoc {
		st.Fail(fmt.Errorf("mem: cache %q geometry mismatch: snapshot %dx%d, target %dx%d",
			c.name, sets, assoc, c.sets, c.assoc))
		return
	}
	st.I64(&c.stamp)
	st.I64(&c.Hits)
	st.I64(&c.Misses)
	for _, ways := range c.tags {
		st.Words(ways)
	}
	for _, ways := range c.lru {
		for i := range ways {
			st.I64(&ways[i])
		}
	}
}
