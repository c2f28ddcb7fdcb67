package simjob

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/gpu"
	"bow/internal/mem"
	"bow/internal/sm"
)

// carcassPool is an engine's store of retired device carcasses, and
// the only way a device gets recycled: every device the engine builds
// — worker jobs, sweep points and resumes alike — takes a matching
// carcass from the pool, and every device it retires goes
// back. A carcass matches a build on exact config.GPU equality
// (gpu.Salvage.Fits, NewSalvaged's own test). The pool holds at most
// max carcasses (the engine's worker count), hands out the most
// recently returned match first, and drops the oldest when full. A nil
// pool — callers without an engine — builds fresh and retires nothing.
type carcassPool struct {
	max int

	mu   sync.Mutex
	free []*gpu.Salvage // oldest first

	fresh, recycled atomic.Int64 // builds by kind (bow_device_builds_total)
}

func newCarcassPool(max int) *carcassPool {
	return &carcassPool{max: max, free: make([]*gpu.Salvage, 0, max)}
}

// build makes a device for one launch, from the most recently returned
// carcass that fits gcfg when the pool holds one.
func (p *carcassPool) build(gcfg config.GPU, bcfg core.Config, k *sm.Kernel, m *mem.Memory) (*gpu.Device, error) {
	if p == nil {
		return gpu.New(gcfg, bcfg, k, m)
	}
	sv := p.take(gcfg)
	d, err := gpu.NewSalvaged(gcfg, bcfg, k, m, sv)
	if err != nil {
		return nil, err
	}
	if sv != nil {
		p.recycled.Add(1)
	} else {
		p.fresh.Add(1)
	}
	return d, nil
}

// take removes and returns the newest carcass that fits gcfg, or nil.
func (p *carcassPool) take(gcfg config.GPU) *gpu.Salvage {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if sv := p.free[i]; sv.Fits(gcfg) {
			p.remove(i)
			return sv
		}
	}
	return nil
}

// remove deletes free[i], keeping the rest in return order.
func (p *carcassPool) remove(i int) {
	copy(p.free[i:], p.free[i+1:])
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
}

// put retires a device whose run ended with runErr. The caller must be
// done with it, drain registration included. Completed, errored,
// cancelled and interrupted devices all go back — sm.Reset cleans a
// dirty SM — but a kernel fault (a panic the run loop recovered)
// leaves the device undefined, so it is dropped.
func (p *carcassPool) put(d *gpu.Device, runErr error) {
	if p == nil || d == nil || errors.Is(runErr, gpu.ErrKernelFault) {
		return
	}
	sv := d.Salvage()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == p.max {
		p.remove(0)
	}
	p.free = append(p.free, sv)
}

// len reports how many carcasses the pool holds.
func (p *carcassPool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

type carcassPoolKey struct{}

// withCarcassPool attaches an engine's carcass pool to a job context;
// Execute builds its device from it and retires the device into it.
func withCarcassPool(ctx context.Context, p *carcassPool) context.Context {
	return context.WithValue(ctx, carcassPoolKey{}, p)
}

func carcassPoolFrom(ctx context.Context) *carcassPool {
	p, _ := ctx.Value(carcassPoolKey{}).(*carcassPool)
	return p
}
