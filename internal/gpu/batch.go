package gpu

import (
	"context"
	"fmt"
)

// Batch steps several independent devices in bounded-skew lockstep on
// one goroutine: each tick advances every still-running device by up
// to a stride of cycles, so no device ever runs more than one stride
// ahead of its siblings. The devices of a batch run the same prepared
// kernel (shared instruction array, shared reconvergence table) under
// different window configurations, so consecutive turns execute the
// same code through shared decode metadata, and the chunk amortizes
// per-job engine machinery (tickets, goroutines, span accounting)
// across its slots. Devices share no mutable state, so any
// interleaving is bit-identical to running each device alone; the
// batch differential suite asserts this at several strides, and the
// property is granularity-independent.
//
// The hot state is kept structure-of-arrays: parallel slices indexed
// by batch slot (device, cycle bound, result, error) plus a dense
// live-slot list compacted in place as devices finish, so the tick
// loop touches contiguous arrays and never allocates.
//
// Slots can be populated lazily (NewBatchFunc) and drained eagerly
// (OnFinish): a slot's device is then built on its first turn and
// retired as soon as its result is collected, so a large batch's
// peak footprint is bounded by the devices inside one stride window,
// not the batch size.
type Batch struct {
	devs      []*Device
	build     func(slot int) (*Device, error) // lazy batches only
	retire    func(d *Device)                 // lazy batches only; may be nil
	onFinish  func(slot int, res *Result, err error)
	maxCycles []int64 // per-device bound, already normalized
	live      []int   // slots still running, compacted in place
	res       []*Result
	errs      []error
	stride    int64 // cycles per device per tick (max inter-device skew)
	lazy      bool  // devices built by b.build at first turn

	ticks     int64 // lockstep iterations executed
	devCycles int64 // total device-cycles stepped (occupancy numerator)
	slotCap   int64 // total slot-cycle capacity offered (occupancy denominator)
}

// DefaultBatchStride is the per-tick cycle stride. Measured on the
// tracked workloads, throughput is monotone in the stride: at stride 1
// (true cycle lockstep) the siblings evict each device's mutable state
// (SM pipelines, register file, cache model) every single cycle and
// the batch loses ~15-25% to that thrash, and every finite interleave
// the grid was probed at still trails a per-device-to-completion turn
// order — per-device state far outweighs the shared read-only kernel
// in the working set. The default therefore covers any realistic
// kernel in one turn (the tracked workloads retire in tens of
// thousands of cycles), while still bounding the skew a runaway
// kernel can open up before its siblings get their turn. Callers that
// need tight skew (e.g. cross-device sync experiments) can dial it
// down with SetStride and pay the locality cost knowingly.
const DefaultBatchStride = 1 << 20

// SetStride overrides the per-tick stride (calls before Run only;
// n <= 0 restores the default). Exposed for experiments — results are
// identical at any stride, only throughput changes.
func (b *Batch) SetStride(n int64) {
	if n <= 0 {
		n = DefaultBatchStride
	}
	b.stride = n
}

// OnFinish registers a callback invoked on the stepping goroutine the
// moment a slot completes (result collected or error recorded), before
// its siblings advance further. Set it before Run. Combined with lazy
// construction this streams the batch: a slot's downstream work
// (functional checks, caching) happens while later slots are still
// cold, and the batch drops its reference to the finished device so
// its simulation state can be reclaimed mid-run.
func (b *Batch) OnFinish(fn func(slot int, res *Result, err error)) {
	b.onFinish = fn
}

// NewBatch builds a lockstep batch over devs; maxCycles gives the
// per-device total-cycle bound (nil applies the default to every
// device, a short slice errors).
func NewBatch(devs []*Device, maxCycles []int64) (*Batch, error) {
	b, err := newBatch(len(devs), maxCycles)
	if err != nil {
		return nil, err
	}
	copy(b.devs, devs)
	return b, nil
}

// NewBatchFunc builds a lockstep batch of n lazily-constructed slots:
// build(slot) runs on the stepping goroutine at the slot's first turn.
// A build error fails only that slot (reported like a device error),
// never its siblings.
//
// retire, when non-nil, receives each built device once its slot has
// finished (after OnFinish) — completed, errored or cancelled alike —
// and the batch drops its own reference, so the caller may recycle the
// device (Salvage) into a later build. A device whose stepping panics
// is never retired. Under the default stride each slot finishes before
// the next one is built, so a recycling caller re-launders one
// device's storage through the whole batch.
func NewBatchFunc(n int, maxCycles []int64, build func(slot int) (*Device, error), retire func(d *Device)) (*Batch, error) {
	if build == nil {
		return nil, fmt.Errorf("gpu: nil batch builder")
	}
	b, err := newBatch(n, maxCycles)
	if err != nil {
		return nil, err
	}
	b.build = build
	b.retire = retire
	b.lazy = true
	return b, nil
}

func newBatch(n int, maxCycles []int64) (*Batch, error) {
	if n == 0 {
		return nil, fmt.Errorf("gpu: empty batch")
	}
	if maxCycles != nil && len(maxCycles) != n {
		return nil, fmt.Errorf("gpu: batch has %d devices but %d cycle bounds", n, len(maxCycles))
	}
	b := &Batch{
		devs:      make([]*Device, n),
		maxCycles: make([]int64, n),
		live:      make([]int, n),
		res:       make([]*Result, n),
		errs:      make([]error, n),
	}
	for i := 0; i < n; i++ {
		if maxCycles == nil {
			b.maxCycles[i] = normalizeMaxCycles(0)
		} else {
			b.maxCycles[i] = normalizeMaxCycles(maxCycles[i])
		}
		b.live[i] = i
	}
	b.stride = DefaultBatchStride
	return b, nil
}

// finish records a slot's terminal state, hands it to the OnFinish
// hook, and (for lazy batches) retires the device: the batch drops it
// and hands it to the retire hook, so its storage can be recycled or
// reclaimed while siblings run.
func (b *Batch) finish(slot int, res *Result, err error) {
	b.res[slot] = res
	b.errs[slot] = err
	if b.onFinish != nil {
		b.onFinish(slot, res, err)
	}
	if b.lazy {
		d := b.devs[slot]
		b.devs[slot] = nil
		if d != nil && b.retire != nil {
			b.retire(d)
		}
	}
}

// tick advances every live device by up to one stride of cycles and
// compacts the live list in place. Lazily-batched devices are built on
// their first turn; finished devices collect their Result immediately
// and failed devices record their error, each exactly once — the
// steady-state loop body is allocation-free.
//
//bow:hotpath
func (b *Batch) tick() {
	n := 0
	var maxRan int64
	liveAtStart := int64(len(b.live))
	for _, i := range b.live {
		d := b.devs[i]
		if d == nil {
			var err error
			if d, err = b.build(i); err != nil {
				b.finish(i, nil, err)
				continue
			}
			b.devs[i] = d
			d.propagateCapture()
		}
		max := b.maxCycles[i]
		st, err := stepRan, error(nil)
		ran := int64(0)
		for ran < b.stride {
			st, err = d.step(max, 0)
			if st != stepRan {
				break
			}
			ran++
		}
		b.devCycles += ran
		if ran > maxRan {
			maxRan = ran
		}
		if err != nil {
			b.finish(i, nil, err)
			continue
		}
		if st == stepDone {
			b.finish(i, d.collect(), nil)
			continue
		}
		b.live[n] = i
		n++
	}
	b.live = b.live[:n]
	// Charge capacity for what the tick's longest runner actually used,
	// not the full stride: a tick where every device finishes early
	// should not read as wasted slots. Occupancy then measures runtime
	// skew across live devices at any stride.
	b.slotCap += liveAtStart * maxRan
	b.ticks++
}

// Run steps the batch to completion (or ctx cancellation, polled every
// tick — one tick covers a full stride across the batch) and returns
// per-device results and errors, parallel to the batch's slots. A
// device's error never stops its siblings.
func (b *Batch) Run(ctx context.Context) ([]*Result, []error) {
	for _, d := range b.devs {
		if d != nil {
			d.propagateCapture()
		}
	}
	for len(b.live) > 0 {
		b.tick()
		if cerr := ctx.Err(); cerr != nil && len(b.live) > 0 {
			for _, i := range b.live {
				var at int64
				if b.devs[i] != nil {
					at = b.devs[i].cycles
				}
				b.finish(i, nil, fmt.Errorf("gpu: run canceled after %d cycles: %w", at, cerr))
			}
			b.live = b.live[:0]
		}
	}
	return b.res, b.errs
}

// Ticks reports how many lockstep iterations ran.
func (b *Batch) Ticks() int64 { return b.ticks }

// DeviceCycles reports the total device-cycles stepped.
func (b *Batch) DeviceCycles() int64 { return b.devCycles }

// SlotCycles reports the total slot-cycle capacity the batch offered
// (per tick: live slots x the tick's longest run) — the occupancy
// denominator.
func (b *Batch) SlotCycles() int64 { return b.slotCap }

// Occupancy is the fraction of offered slot-cycles actually stepped —
// 1.0 means every device ran the whole time (perfect lockstep
// amortization), lower values mean the batch drained into a tail of
// stragglers. Exported to the bow_batch_* metric families.
func (b *Batch) Occupancy() float64 {
	if b.slotCap == 0 {
		return 0
	}
	return float64(b.devCycles) / float64(b.slotCap)
}
