// Package mem implements the memory substrate: the functional global
// memory store, per-CTA shared memory, the L1/L2 cache timing model with
// LRU set-associative tag arrays, and the per-warp access coalescer.
//
// Data always lives in the functional stores; the caches model timing
// (hit/miss latency) only. This split keeps the functional oracle exact
// while letting the timing model stay simple.
package mem

import (
	"fmt"
	"sort"
)

// pageWords is the granularity of the sparse global store (4 KiB pages).
const pageWords = 1024

// Memory is the chip-level functional global memory: a sparse
// word-addressable store organized as pages with a one-entry page
// cache, so a warp's per-lane accesses (which land on one or two pages)
// skip the map lookup. Addresses are byte addresses; accesses are
// 32-bit and must be 4-byte aligned.
//
// A Memory belongs to a single simulation: the device loop runs on one
// goroutine and every job allocates its own store, so accesses are not
// synchronized. It is not safe for concurrent use.
//
// Pages come in two tiers: a private overlay (pages) and an optional
// frozen base shared with other Memories through Seal and
// Image.NewMemory. Reads fall through the overlay to the base; the first
// write to a base page copies it into the overlay (copy-on-write).
// Handing N simulations one initial image is therefore a map-share, not
// a deep page walk.
//
//bow:state
type Memory struct {
	pages    map[uint32]*[pageWords]uint32
	base     map[uint32]*[pageWords]uint32 // frozen, shared with an Image and its children; never written
	last     *[pageWords]uint32            //bow:derived -- one-entry page cache; a load invalidates it
	lastPage uint32                        //bow:derived -- cached page number (^0 when none); a load invalidates it
	lastRO   bool                          //bow:derived -- cached page's tier flag; a load invalidates it
}

// NewMemory creates an empty global memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageWords]uint32), lastPage: ^uint32(0)}
}

// lookup returns the page holding word index idx for reading, or nil
// for untouched pages: reads of unwritten memory are zero and must not
// populate the store. This is the CoW read path — it falls through the
// private overlay to the shared base image without copying anything,
// and the hotpathalloc pass proves it allocation-free.
//
//bow:hotpath
func (m *Memory) lookup(idx uint32) *[pageWords]uint32 {
	pn := idx / pageWords
	if pn == m.lastPage {
		return m.last
	}
	if p := m.pages[pn]; p != nil {
		m.last, m.lastPage, m.lastRO = p, pn, false
		return p
	}
	if b := m.base[pn]; b != nil {
		m.last, m.lastPage, m.lastRO = b, pn, true
		return b
	}
	return nil
}

// page returns the page holding word index idx for writing, allocating
// or copy-on-writing it as needed.
func (m *Memory) page(idx uint32) *[pageWords]uint32 {
	pn := idx / pageWords
	if pn == m.lastPage && !m.lastRO {
		return m.last
	}
	p := m.pages[pn]
	if p == nil {
		if b := m.base[pn]; b != nil {
			// Copy-on-write: first store to a shared base page.
			cp := *b
			p = &cp
		} else {
			p = new([pageWords]uint32)
		}
		m.pages[pn] = p
	}
	m.last, m.lastPage, m.lastRO = p, pn, false
	return p
}

// Image is a frozen, immutable memory image shared read-only across
// simulations: the base-tier page map with no owner. An Image has no
// mutable state at all, so any number of goroutines may call NewMemory
// concurrently. It is the artifact layer's vehicle for building a
// benchmark's initial memory once per sweep and handing every job a
// copy-on-write child.
type Image struct {
	base map[uint32]*[pageWords]uint32
}

// Seal freezes the memory's current contents into an immutable Image
// and returns it. The receiver keeps seeing the same contents (its
// pages move to the shared base tier and copy-on-write from it) but must
// not be written concurrently with Image.NewMemory calls; sealing a
// memory that is then set aside is the safe pattern.
func (m *Memory) Seal() *Image {
	if m.base == nil {
		m.base = make(map[uint32]*[pageWords]uint32, len(m.pages))
	}
	for pn, p := range m.pages {
		m.base[pn] = p
		delete(m.pages, pn)
	}
	m.last, m.lastPage, m.lastRO = nil, ^uint32(0), false
	return &Image{base: m.base}
}

// NewMemory returns a fresh copy-on-write child of the image. The
// child sees the image's contents; its writes copy pages into a
// private overlay and are invisible to the image and to sibling
// children. Safe for concurrent use: it only reads the frozen base
// map.
func (im *Image) NewMemory() *Memory {
	return &Memory{
		pages:    make(map[uint32]*[pageWords]uint32),
		base:     im.base,
		lastPage: ^uint32(0),
	}
}

// Pages reports how many pages the image holds (observability).
func (im *Image) Pages() int { return len(im.base) }

// Read32 loads the word at byte address addr.
//
//bow:hotpath
func (m *Memory) Read32(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, misalignedErr("read", addr)
	}
	idx := addr >> 2
	p := m.lookup(idx)
	if p == nil {
		return 0, nil
	}
	return p[idx%pageWords], nil
}

// misalignedErr builds the misaligned-access error off the hot path.
func misalignedErr(op string, addr uint32) error {
	return fmt.Errorf("mem: misaligned 32-bit %s at 0x%x", op, addr)
}

// Write32 stores v at byte address addr.
func (m *Memory) Write32(addr, v uint32) error {
	if addr&3 != 0 {
		return misalignedErr("write", addr)
	}
	idx := addr >> 2
	m.page(idx)[idx%pageWords] = v
	return nil
}

// AtomicAdd adds v to the word at addr and returns the previous value.
func (m *Memory) AtomicAdd(addr, v uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, misalignedErr("atomic", addr)
	}
	idx := addr >> 2
	p := m.page(idx)
	old := p[idx%pageWords]
	p[idx%pageWords] = old + v
	return old, nil
}

// WriteWords bulk-initializes memory starting at byte address base.
func (m *Memory) WriteWords(base uint32, vals []uint32) error {
	for i, v := range vals {
		if err := m.Write32(base+uint32(4*i), v); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords bulk-reads n words starting at byte address base.
func (m *Memory) ReadWords(base uint32, n int) ([]uint32, error) {
	out := make([]uint32, n)
	for i := range out {
		v, err := m.Read32(base + uint32(4*i))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Snapshot returns a copy of all nonzero words, keyed by word index
// (for the functional oracle's end-state comparison). Overlay pages
// shadow base pages of the same number.
func (m *Memory) Snapshot() map[uint32]uint32 {
	out := make(map[uint32]uint32)
	emit := func(pn uint32, p *[pageWords]uint32) {
		for i, v := range p {
			if v != 0 {
				out[pn*pageWords+uint32(i)] = v
			}
		}
	}
	pns := make([]uint32, 0, len(m.base)+len(m.pages))
	for pn := range m.base {
		if m.pages[pn] == nil {
			pns = append(pns, pn)
		}
	}
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	for _, pn := range pns {
		if p := m.pages[pn]; p != nil {
			emit(pn, p)
		} else {
			emit(pn, m.base[pn])
		}
	}
	return out
}

// SharedMemory is one CTA's scratchpad: a dense word array.
//
//bow:state
type SharedMemory struct {
	words []uint32
}

// NewShared creates a scratchpad of the given byte size.
func NewShared(bytes int) *SharedMemory {
	return &SharedMemory{words: make([]uint32, (bytes+3)/4)}
}

// Read32 loads a word; out-of-range or misaligned accesses error.
func (s *SharedMemory) Read32(addr uint32) (uint32, error) {
	if addr&3 != 0 {
		return 0, fmt.Errorf("mem: misaligned shared read at 0x%x", addr)
	}
	i := addr >> 2
	if int(i) >= len(s.words) {
		return 0, fmt.Errorf("mem: shared read out of range at 0x%x", addr)
	}
	return s.words[i], nil
}

// Write32 stores a word.
func (s *SharedMemory) Write32(addr, v uint32) error {
	if addr&3 != 0 {
		return fmt.Errorf("mem: misaligned shared write at 0x%x", addr)
	}
	i := addr >> 2
	if int(i) >= len(s.words) {
		return fmt.Errorf("mem: shared write out of range at 0x%x", addr)
	}
	s.words[i] = v
	return nil
}

// AtomicAdd adds v at addr, returning the old value.
func (s *SharedMemory) AtomicAdd(addr, v uint32) (uint32, error) {
	old, err := s.Read32(addr)
	if err != nil {
		return 0, err
	}
	return old, s.Write32(addr, old+v)
}
