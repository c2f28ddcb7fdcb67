package simjob

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/gpu"
	"bow/internal/mem"
	"bow/internal/workloads"
)

// TestCarcassPoolDifferential runs the crosspolicy grid, in a seeded
// shuffled order, plus points mixing schedulers and SM counts, through
// a one-worker engine, so nearly every point runs on a device recycled
// from its predecessor's carcass — across policies, window sizes and
// GPU geometries. Every result must be byte-identical to a pool-less
// Execute, and the pool must never hold more than Workers carcasses.
// The full results are compared again at the end: no result may alias
// storage a later job's recycled device overwrote.
func TestCarcassPoolDifferential(t *testing.T) {
	var specs []JobSpec
	for _, b := range workloads.Names() {
		for _, p := range AllPolicies() {
			specs = append(specs, JobSpec{Bench: b, Policy: p})
		}
	}
	for _, b := range []string{"VECTORADD", "SAD", "LIB"} {
		for _, p := range []string{PolicyBaseline, PolicyBOWWR, PolicyCARFC, PolicyLTRF} {
			specs = append(specs,
				JobSpec{Bench: b, Policy: p, Scheduler: "lrr"},
				JobSpec{Bench: b, Policy: p, Scheduler: "gto", SMs: 2},
				JobSpec{Bench: b, Policy: p, Scheduler: "lrr", SMs: 2})
		}
	}
	rand.New(rand.NewSource(13)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	e := newTestEngine(t, Options{Workers: 1})
	ctx := context.Background()
	colds := make([]*Outcome, len(specs))
	pooleds := make([]*Outcome, len(specs))
	for i, sp := range specs {
		name := fmt.Sprintf("%s/%s/%s/sms=%d", sp.Bench, sp.Policy, sp.Scheduler, sp.SMs)
		cold, err := Execute(ctx, sp)
		if err != nil {
			t.Fatalf("%s: pool-less: %v", name, err)
		}
		pooled, err := e.DoFull(ctx, sp)
		if err != nil {
			t.Fatalf("%s: pooled: %v", name, err)
		}
		want, _ := cold.Summary.CanonicalJSON()
		got, _ := pooled.Summary.CanonicalJSON()
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: recycled device diverges from a fresh one:\n%s\n%s", name, want, got)
		}
		if n := e.pool.len(); n > e.Workers() {
			t.Fatalf("%s: pool holds %d carcasses, Workers is %d", name, n, e.Workers())
		}
		colds[i], pooleds[i] = cold, pooled
	}
	for i := range specs {
		if !reflect.DeepEqual(pooleds[i].Full, colds[i].Full) {
			t.Errorf("%s/%s: pooled full result changed after later jobs recycled its device",
				specs[i].Bench, specs[i].Policy)
		}
	}
	m := e.Metrics()
	if m.DeviceBuildsRecycled == 0 || m.DeviceBuildsFresh == 0 {
		t.Errorf("builds fresh=%d recycled=%d: the mixed geometries should exercise both",
			m.DeviceBuildsFresh, m.DeviceBuildsRecycled)
	}
	if total := m.DeviceBuildsFresh + m.DeviceBuildsRecycled; total != int64(len(specs)) {
		t.Errorf("%d device builds for %d points", total, len(specs))
	}
}

// TestCarcassPoolAllocGuard pins the pool's gain: on a warm pool a
// cold Execute reuses the whole chip, so it allocates a small fraction
// of a fresh device (~1.5 MB). A per-job chip build sneaking back in
// blows the budget.
func TestCarcassPoolAllocGuard(t *testing.T) {
	const budget = 128 << 10
	spec := JobSpec{Bench: "VECTORADD", Policy: PolicyBOWWR}
	ctx := withCarcassPool(context.Background(), newCarcassPool(1))
	// Two warm-up runs: the first builds the carcass and the artifacts,
	// the second settles every lazily grown buffer.
	for i := 0; i < 2; i++ {
		if _, err := Execute(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Execute(ctx, spec); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("warm-pool Execute allocated %d bytes", got)
	if got > budget {
		t.Errorf("warm-pool Execute allocated %d bytes, budget %d", got, budget)
	}
}

// TestCarcassPoolReleasesLaunch proves a pooled carcass pins nothing
// of its last launch: once the job is done, its memory image must be
// collectable while the carcass sits in the pool.
func TestCarcassPoolReleasesLaunch(t *testing.T) {
	pool := newCarcassPool(1)
	pk, err := artifact.Default.Kernel(artifact.KeyFor("SAD", false, artifact.HintsNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.Default.Image("SAD")
	if err != nil {
		t.Fatal(err)
	}
	wm := func() weak.Pointer[mem.Memory] {
		m := img.NewMemory()
		d, err := pool.build(config.SimDefault(), core.Config{IW: 3, Policy: core.PolicyCompilerHints}, pk.NewSMKernel(), m)
		if err != nil {
			t.Fatal(err)
		}
		d.CaptureRegs, d.CaptureTrace = true, true
		_, err = d.Run(0)
		pool.put(d, err)
		return weak.Make(m)
	}()
	if pool.len() != 1 {
		t.Fatalf("pool holds %d carcasses, want 1", pool.len())
	}
	runtime.GC()
	if wm.Value() != nil {
		t.Fatal("a pooled carcass keeps its retired launch's memory image alive")
	}
	runtime.KeepAlive(pool)
}

// TestCarcassPoolRules pins the pool's contract: newest matching
// carcass first, exact geometry matching, at most max carcasses (the
// oldest dropped), and kernel-faulted devices never pooled.
func TestCarcassPoolRules(t *testing.T) {
	pk, err := artifact.Default.Kernel(artifact.KeyFor("VECTORADD", false, artifact.HintsNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.Default.Image("VECTORADD")
	if err != nil {
		t.Fatal(err)
	}
	one, two := config.SimDefault(), config.SimDefault()
	one.NumSMs, two.NumSMs = 1, 2
	bcfg := core.Config{Policy: core.PolicyBaseline}
	pool := newCarcassPool(2)
	build := func(g config.GPU) *gpu.Device {
		t.Helper()
		d, err := pool.build(g, bcfg, pk.NewSMKernel(), img.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b, c := build(one), build(one), build(two)
	pool.put(a, nil)
	pool.put(b, nil)
	pool.put(c, nil) // full: a's carcass, the oldest, is dropped
	if n := pool.len(); n != 2 {
		t.Fatalf("pool holds %d carcasses, want 2", n)
	}
	if sv := pool.take(one); sv == nil || sv.Fits(two) {
		t.Fatal("take(one) did not return the one-SM carcass")
	}
	if pool.take(one) != nil {
		t.Fatal("the oldest carcass was not dropped when the pool overflowed")
	}
	if pool.take(two) == nil || pool.len() != 0 {
		t.Fatal("take(two) did not return the two-SM carcass")
	}
	pool.put(build(one), fmt.Errorf("wrapped: %w", gpu.ErrKernelFault))
	if pool.len() != 0 {
		t.Fatal("a kernel-faulted device was pooled")
	}
	pool.put(build(one), errors.New("gpu: kernel exceeded 10 cycles"))
	if pool.len() != 1 {
		t.Fatal("an errored (not faulted) device was not pooled")
	}
	pool.put(build(one), nil) // recycles the errored device's carcass
	if fresh, recycled := pool.fresh.Load(), pool.recycled.Load(); fresh != 5 || recycled != 1 {
		t.Errorf("builds fresh=%d recycled=%d, want 5 and 1", fresh, recycled)
	}
}

// TestCarcassPoolMetrics checks both /metrics forms carry the build
// counters.
func TestCarcassPoolMetrics(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	ctx := context.Background()
	for _, p := range []string{PolicyBaseline, PolicyBOWWR} {
		if _, err := e.Do(ctx, JobSpec{Bench: "VECTORADD", Policy: p}); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.DeviceBuildsFresh != 1 || m.DeviceBuildsRecycled != 1 {
		t.Fatalf("builds fresh=%d recycled=%d, want 1 and 1", m.DeviceBuildsFresh, m.DeviceBuildsRecycled)
	}
	var buf bytes.Buffer
	NewServer(e).WritePrometheus(&buf)
	for _, line := range []string{
		"# TYPE bow_device_builds_total counter",
		`bow_device_builds_total{kind="fresh"} 1`,
		`bow_device_builds_total{kind="recycled"} 1`,
	} {
		if !strings.Contains(buf.String(), line) {
			t.Errorf("prometheus output lacks %q", line)
		}
	}
}
