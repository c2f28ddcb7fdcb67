package artifact

import (
	"container/list"
	"sync"
)

// Default cache sizes. Kernel artifacts are small (one decoded program
// plus maps); image artifacts hold page maps whose pages are shared
// with live simulations anyway, so both bounds are generous relative
// to the registered benchmark count.
const (
	defaultMaxKernels = 128
	defaultMaxImages  = 64
)

// Cache memoizes prepared kernels and sealed memory images under a
// small LRU with single-flight construction: concurrent requests for
// the same key block on one build instead of duplicating it, and a
// failed build is not cached (the next request retries). All artifacts
// handed out are immutable, so a cache hit is always safe to share
// across engine workers.
type Cache struct {
	mu      sync.Mutex
	maxK    int
	maxI    int
	kll     *list.List // kernel LRU, front = most recently used
	ill     *list.List // image LRU
	kernels map[KernelKey]*list.Element
	images  map[string]*list.Element

	hits, misses int64
}

// kentry is one kernel slot: done closes when the build finishes.
type kentry struct {
	key  KernelKey
	done chan struct{}
	kern *Kernel
	err  error
}

// ientry is one image slot.
type ientry struct {
	bench string
	done  chan struct{}
	img   *Image
	err   error
}

// NewCache builds an artifact cache; non-positive bounds select the
// defaults.
func NewCache(maxKernels, maxImages int) *Cache {
	if maxKernels <= 0 {
		maxKernels = defaultMaxKernels
	}
	if maxImages <= 0 {
		maxImages = defaultMaxImages
	}
	return &Cache{
		maxK: maxKernels, maxI: maxImages,
		kll: list.New(), ill: list.New(),
		kernels: make(map[KernelKey]*list.Element),
		images:  make(map[string]*list.Element),
	}
}

// Default is the process-wide artifact cache every simulation path
// shares: the job engine and the experiment runner's inline path both
// draw from it,
// so one sweep's preparation work is visible to the next.
var Default = NewCache(0, 0)

// Kernel returns the prepared kernel for key, building it at most once
// per cache residency. Concurrent callers for the same key share one
// build (all of them count one hit except the builder's miss).
func (c *Cache) Kernel(key KernelKey) (*Kernel, error) {
	c.mu.Lock()
	if el, ok := c.kernels[key]; ok {
		c.kll.MoveToFront(el)
		c.hits++
		e := el.Value.(*kentry)
		c.mu.Unlock()
		<-e.done
		return e.kern, e.err
	}
	e := &kentry{key: key, done: make(chan struct{})}
	el := c.kll.PushFront(e)
	c.kernels[key] = el
	c.misses++
	if c.kll.Len() > c.maxK {
		c.evictKernelLocked()
	}
	c.mu.Unlock()

	e.kern, e.err = BuildKernel(key)
	close(e.done)
	if e.err != nil {
		// Failed builds are not memoized: drop the entry (if still
		// resident) so the next request retries.
		c.mu.Lock()
		if cur, ok := c.kernels[key]; ok && cur == el {
			c.kll.Remove(el)
			delete(c.kernels, key)
		}
		c.mu.Unlock()
	}
	return e.kern, e.err
}

// Image returns the sealed initial-memory image for the named
// benchmark, building it at most once per cache residency.
func (c *Cache) Image(bench string) (*Image, error) {
	c.mu.Lock()
	if el, ok := c.images[bench]; ok {
		c.ill.MoveToFront(el)
		c.hits++
		e := el.Value.(*ientry)
		c.mu.Unlock()
		<-e.done
		return e.img, e.err
	}
	e := &ientry{bench: bench, done: make(chan struct{})}
	el := c.ill.PushFront(e)
	c.images[bench] = el
	c.misses++
	if c.ill.Len() > c.maxI {
		c.evictImageLocked()
	}
	c.mu.Unlock()

	e.img, e.err = BuildImage(bench)
	close(e.done)
	if e.err != nil {
		c.mu.Lock()
		if cur, ok := c.images[bench]; ok && cur == el {
			c.ill.Remove(el)
			delete(c.images, bench)
		}
		c.mu.Unlock()
	}
	return e.img, e.err
}

// evictKernelLocked drops the least recently used kernel entry.
// In-flight builds may be evicted: their waiters hold the entry
// pointer and resolve normally; only future lookups rebuild.
func (c *Cache) evictKernelLocked() {
	if back := c.kll.Back(); back != nil {
		c.kll.Remove(back)
		delete(c.kernels, back.Value.(*kentry).key)
	}
}

func (c *Cache) evictImageLocked() {
	if back := c.ill.Back(); back != nil {
		c.ill.Remove(back)
		delete(c.images, back.Value.(*ientry).bench)
	}
}

// Counters reports the cumulative artifact-cache hits and misses
// (kernels and images combined) — the bow_artifact_* metric families.
func (c *Cache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports resident entry counts (kernels, images).
func (c *Cache) Len() (kernels, images int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kll.Len(), c.ill.Len()
}
