package simjob

import (
	"container/list"
	"sync"
)

// Cache is the two-tier result cache: an in-memory LRU holding full
// outcomes (simulator result included), and an optional on-disk tier —
// a Store of verified result envelopes under <dir>/<spechash>.json.
// Memory hits can serve figure generators that need the full result;
// disk hits serve summary-level consumers (the daemon) across process
// restarts.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	disk  *Store // nil = memory only

	hitsMem, hitsDisk, misses int64
}

type cacheEntry struct {
	hash string
	out  *Outcome
}

// NewCache builds a cache holding up to max outcomes in memory
// (max <= 0 selects the default of 4096) and, when dir is non-empty,
// persisting summaries beneath it (created on demand).
func NewCache(max int, dir string) (*Cache, error) {
	if max <= 0 {
		max = 4096
	}
	c := &Cache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
	if dir != "" {
		disk, err := OpenStore(dir)
		if err != nil {
			return nil, err
		}
		c.disk = disk
	}
	return c, nil
}

// Get looks a spec hash up. needFull demands the complete simulator
// result: disk-tier entries (summary only) do not satisfy it. The
// returned outcome is a shallow copy with Cached set to the serving
// tier. A corrupt, truncated, or mismatched disk file is a miss; the
// fresh run will overwrite it.
func (c *Cache) Get(hash string, needFull bool) (*Outcome, bool) {
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		out := el.Value.(*cacheEntry).out
		if out.Full != nil || !needFull {
			c.ll.MoveToFront(el)
			c.hitsMem++
			c.mu.Unlock()
			cp := *out
			cp.Cached = "memory"
			return &cp, true
		}
	}
	if c.disk == nil || needFull {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()

	sum, ok := c.disk.Get(hash)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.misses++
		return nil, false
	}
	out := summaryOutcome(hash, sum, "disk")
	c.hitsDisk++
	c.insertLocked(hash, out)
	cp := *out
	return &cp, true
}

// summaryOutcome wraps a result read back from an envelope (disk tier
// or peer) as a summary-level outcome served by the named tier.
func summaryOutcome(hash string, sum JobResult, tier string) *Outcome {
	return &Outcome{
		Spec: JobSpec{
			Bench: sum.Bench, Policy: sum.Policy, IW: sum.IW,
			Capacity: sum.Capacity, SMs: sum.SMs, Scheduler: sum.Scheduler,
		},
		Hash:    hash,
		Summary: sum,
		Cached:  tier,
	}
}

// Put stores a freshly simulated outcome in both tiers.
func (c *Cache) Put(out *Outcome) error {
	stored := *out
	stored.Cached = ""
	c.mu.Lock()
	c.insertLocked(out.Hash, &stored)
	c.mu.Unlock()
	if c.disk == nil {
		return nil
	}
	_, err := c.disk.Put(out.Hash, out.Summary)
	return err
}

// insertLocked adds or refreshes the memory-tier entry and evicts the
// LRU tail past capacity. Callers hold c.mu.
func (c *Cache) insertLocked(hash string, out *Outcome) {
	if el, ok := c.items[hash]; ok {
		// Keep the richer value: never replace a full outcome with a
		// summary-only one.
		old := el.Value.(*cacheEntry)
		if out.Full != nil || old.out.Full == nil {
			old.out = out
		}
		c.ll.MoveToFront(el)
		return
	}
	c.items[hash] = c.ll.PushFront(&cacheEntry{hash: hash, out: out})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).hash)
	}
}

// Peek returns the verified result envelope for hash without touching
// the LRU or the hit/miss counters — the read path of the peer-fill
// GET /result/{hash} endpoint, which must not distort cache metrics. A
// memory-resident summary is encoded back into envelope form so the
// wire format is uniform.
func (c *Cache) Peek(hash string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[hash]; ok {
		out := el.Value.(*cacheEntry).out
		c.mu.Unlock()
		raw, _, err := EncodeResultEnvelope(out.Summary)
		return raw, err == nil
	}
	c.mu.Unlock()
	if c.disk == nil {
		return nil, false
	}
	return c.disk.Raw(hash)
}

// Len is the memory-tier entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Counters returns the (memory hits, disk hits, misses) tallies.
func (c *Cache) Counters() (hitsMem, hitsDisk, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hitsMem, c.hitsDisk, c.misses
}
