package mem

import "fmt"

// Cache is a set-associative LRU tag array used for timing (hit/miss)
// decisions only; data lives in the functional stores.
//
//bow:state
type Cache struct {
	name      string     //bow:snapskip -- diagnostic label, fixed at construction
	lineBytes int        //bow:snapskip -- construction-time geometry; snapshot validation keys on sets/assoc, which fix the storage layout
	sets      int        //bow:resetskip -- geometry, fixed at construction; Reset restores contents only
	assoc     int        //bow:resetskip -- geometry, fixed at construction; Reset restores contents only
	tags      [][]uint32 // [set][way] line tag; 0 means invalid
	lru       [][]int64  // [set][way] last-use stamp
	stamp     int64

	Hits   int64
	Misses int64
}

// NewCache builds a cache of sizeBytes with the given line size and
// associativity. sizeBytes must be a multiple of lineBytes*assoc.
func NewCache(name string, sizeBytes, lineBytes, assoc int) (*Cache, error) {
	if lineBytes <= 0 || assoc <= 0 || sizeBytes <= 0 {
		return nil, fmt.Errorf("mem: bad cache geometry %d/%d/%d", sizeBytes, lineBytes, assoc)
	}
	lines := sizeBytes / lineBytes
	if lines%assoc != 0 || lines == 0 {
		return nil, fmt.Errorf("mem: cache %q: %d lines not divisible by assoc %d", name, lines, assoc)
	}
	sets := lines / assoc
	c := &Cache{name: name, lineBytes: lineBytes, sets: sets, assoc: assoc}
	c.tags = make([][]uint32, sets)
	c.lru = make([][]int64, sets)
	// Two slabs instead of two allocations per set: SM construction is
	// on the job engine's critical path, and a chip-sized L2 has
	// thousands of sets.
	tagSlab := make([]uint32, lines)
	lruSlab := make([]int64, lines)
	for i := range c.tags {
		c.tags[i] = tagSlab[i*assoc : (i+1)*assoc : (i+1)*assoc]
		c.lru[i] = lruSlab[i*assoc : (i+1)*assoc : (i+1)*assoc]
	}
	return c, nil
}

// CacheGeometry identifies a cache's shape — the three parameters that
// determine its tag/LRU storage layout — for reuse matching.
type CacheGeometry struct {
	SizeBytes int
	LineBytes int
	Assoc     int
}

// Geometry reports the cache's shape.
func (c *Cache) Geometry() CacheGeometry {
	return CacheGeometry{
		SizeBytes: c.sets * c.assoc * c.lineBytes,
		LineBytes: c.lineBytes,
		Assoc:     c.assoc,
	}
}

// Reset invalidates every line and zeroes the counters, restoring the
// cache to its freshly-constructed state without giving up the tag and
// LRU storage. A reset cache is observationally identical to a
// NewCache with the same geometry — the engine's carcass pool recycles
// cache models across runs on the strength of that equivalence.
func (c *Cache) Reset() {
	for _, set := range c.tags {
		for i := range set {
			set[i] = 0
		}
	}
	for _, set := range c.lru {
		for i := range set {
			set[i] = 0
		}
	}
	c.stamp = 0
	c.Hits = 0
	c.Misses = 0
}

// Access probes the cache for the line containing addr, filling on miss
// (allocate-on-miss, LRU victim). Returns whether it hit.
func (c *Cache) Access(addr uint32) bool {
	c.stamp++
	line := addr / uint32(c.lineBytes)
	set := int(line) % c.sets
	tag := line + 1 // +1 so tag 0 means invalid
	ways := c.tags[set]
	for w, t := range ways {
		if t == tag {
			c.lru[set][w] = c.stamp
			c.Hits++
			return true
		}
	}
	c.Misses++
	// Fill: evict LRU way.
	victim := 0
	for w := 1; w < c.assoc; w++ {
		if c.lru[set][w] < c.lru[set][victim] {
			victim = w
		}
	}
	ways[victim] = tag
	c.lru[set][victim] = c.stamp
	return false
}

// Accesses is total probes.
func (c *Cache) Accesses() int64 { return c.Hits + c.Misses }

// HitRate returns hits/accesses.
func (c *Cache) HitRate() float64 {
	if a := c.Accesses(); a > 0 {
		return float64(c.Hits) / float64(a)
	}
	return 0
}

// Hierarchy is the two-level timing model: a per-SM L1 in front of a
// chip-wide L2 in front of DRAM.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache // shared; may be nil for an L1-only setup

	L1HitCycles int
	L2HitCycles int
	DRAMCycles  int
}

// LoadLatency returns the cycles to satisfy a read of the line holding
// addr.
func (h *Hierarchy) LoadLatency(addr uint32) int {
	if h.L1.Access(addr) {
		return h.L1HitCycles
	}
	if h.L2 != nil && h.L2.Access(addr) {
		return h.L2HitCycles
	}
	return h.DRAMCycles
}

// StoreLatency returns the cycles until a write's completion is visible
// to the issuing warp. The L1 is write-through no-allocate (GPU
// convention); L2 allocates.
func (h *Hierarchy) StoreLatency(addr uint32) int {
	// Probe L1 without allocating: a hit updates the line, a miss goes
	// around. We model "no allocate" by only probing when the line could
	// be resident — the simple tag probe suffices for timing.
	if h.L1.Access(addr) {
		// keep L1 coherent: hit updated in place
	}
	if h.L2 != nil && h.L2.Access(addr) {
		return h.L2HitCycles
	}
	if h.L2 != nil {
		return h.L2HitCycles // allocated in L2 on the way down
	}
	return h.DRAMCycles
}

// CoalesceInto groups per-lane byte addresses into the distinct aligned
// memory segments they touch (GPU coalescing), appending the unique
// segment base addresses to dst (pass dst[:0] to reuse a scratch buffer
// and avoid the per-warp allocation). Lanes where active is false are
// skipped. Segments appear in first-touch lane order. Dedup is a linear scan: a warp has at most
// WarpSize lanes and typically touches a handful of segments, so this
// beats a map at every realistic size.
func CoalesceInto(dst []uint32, addrs []uint32, active uint32, segBytes int) []uint32 {
	base := len(dst)
	for lane, a := range addrs {
		if active&(1<<uint(lane)) == 0 {
			continue
		}
		seg := a / uint32(segBytes) * uint32(segBytes)
		dup := false
		for _, s := range dst[base:] {
			if s == seg {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, seg)
		}
	}
	return dst
}
