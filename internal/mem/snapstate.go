package mem

import (
	"fmt"
	"slices"

	"bow/internal/snap"
)

// SaveState serializes the merged page set (base + overlay, overlay
// winning) in ascending page order, so identical memory contents always
// produce identical bytes regardless of fork history.
func (m *Memory) SaveState(enc *snap.Encoder) {
	pns := make([]uint32, 0, len(m.pages)+len(m.base))
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	for pn := range m.base {
		if m.pages[pn] == nil {
			pns = append(pns, pn)
		}
	}
	slices.Sort(pns)
	enc.U32(uint32(len(pns)))
	for _, pn := range pns {
		p := m.pages[pn]
		if p == nil {
			p = m.base[pn]
		}
		enc.U32(pn)
		enc.Words(p[:])
	}
}

// LoadState replaces the memory contents with the serialized page set.
// Pages land in the private overlay; Seal the memory afterwards to share
// the restored image copy-on-write across several simulations.
func (m *Memory) LoadState(dec *snap.Decoder) {
	m.pages = make(map[uint32]*[pageWords]uint32)
	m.base = nil
	m.last, m.lastPage, m.lastRO = nil, ^uint32(0), false
	n := dec.Count(4 + 4*pageWords) // page number, page words
	for i := 0; i < n; i++ {
		pn := dec.U32()
		p := new([pageWords]uint32)
		dec.WordsInto(p[:])
		if dec.Err() != nil {
			return
		}
		m.pages[pn] = p
	}
}

// SaveState serializes the scratchpad contents.
func (s *SharedMemory) SaveState(enc *snap.Encoder) {
	enc.U32s(s.words)
}

// LoadState restores a scratchpad written by SaveState.
func (s *SharedMemory) LoadState(dec *snap.Decoder) {
	s.words = dec.U32s()
}

// SaveState serializes the tag array, LRU stamps, and hit/miss
// counters. Geometry is written for validation: a snapshot only
// restores onto an identically sized cache.
func (c *Cache) SaveState(enc *snap.Encoder) {
	enc.Int(c.sets)
	enc.Int(c.assoc)
	enc.I64(c.stamp)
	enc.I64(c.Hits)
	enc.I64(c.Misses)
	for _, ways := range c.tags {
		enc.Words(ways)
	}
	for _, ways := range c.lru {
		for _, s := range ways {
			enc.I64(s)
		}
	}
}

// LoadState restores cache state written by SaveState into a cache
// built with the same geometry.
func (c *Cache) LoadState(dec *snap.Decoder) {
	sets, assoc := dec.Int(), dec.Int()
	if dec.Err() != nil {
		return
	}
	if sets != c.sets || assoc != c.assoc {
		dec.Fail(fmt.Errorf("mem: cache %q geometry mismatch: snapshot %dx%d, target %dx%d",
			c.name, sets, assoc, c.sets, c.assoc))
		return
	}
	c.stamp = dec.I64()
	c.Hits = dec.I64()
	c.Misses = dec.I64()
	for _, ways := range c.tags {
		dec.WordsInto(ways)
	}
	for _, ways := range c.lru {
		for i := range ways {
			ways[i] = dec.I64()
		}
	}
}
