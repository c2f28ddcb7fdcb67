package gpu

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"bow/internal/artifact"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/policy"
)

// recycleRoster is every policy the engine serves — baseline, bow-wt,
// bow-wb, bow-wr, rfc, carfc, ltrf and scrf — with each sized policy
// at a small and a large size, so the transition matrix below recycles
// carcasses across window growth and shrink (IW 2↔7 for BOW, capacity
// 2/3↔12 for the cache-shaped rivals) as well as across policies.
var recycleRoster = []core.Config{
	{Policy: core.PolicyBaseline},
	{IW: 2, Policy: core.PolicyWriteThrough},
	{IW: 7, Policy: core.PolicyWriteThrough},
	{IW: 2, Policy: core.PolicyWriteBack},
	{IW: 7, Policy: core.PolicyWriteBack},
	{IW: 2, Policy: core.PolicyCompilerHints},
	{IW: 7, Policy: core.PolicyCompilerHints},
	rowConfig(policy.RFC, 2),
	rowConfig(policy.RFC, 12),
	rowConfig(policy.CARFC, 2),
	rowConfig(policy.CARFC, 12),
	rowConfig(policy.LTRF, 3),
	rowConfig(policy.LTRF, 12),
	rowConfig(policy.SCRF, 0),
}

func rosterName(c core.Config) string {
	if c.ForwardThroughPort && c.Policy == core.PolicyWriteBack {
		return fmt.Sprintf("rfc/cap%d", c.Capacity)
	}
	return fmt.Sprintf("%v/iw%d/cap%d", c.Policy, c.IW, c.Capacity)
}

// recycleLauncher builds devices for one benchmark under any roster
// config, from the shared kernel of the config's annotation pass.
type recycleLauncher struct {
	t     *testing.T
	bench string
	img   *artifact.Image
	kerns map[artifact.KernelKey]*artifact.Kernel
}

func newRecycleLauncher(t *testing.T, bench string) *recycleLauncher {
	img, err := artifact.BuildImage(bench)
	if err != nil {
		t.Fatal(err)
	}
	return &recycleLauncher{t: t, bench: bench, img: img, kerns: map[artifact.KernelKey]*artifact.Kernel{}}
}

func (l *recycleLauncher) kernel(bcfg core.Config) *artifact.Kernel {
	hints, param := artifact.PassForPolicy(bcfg)
	key := artifact.KeyFor(l.bench, false, hints, param)
	if pk := l.kerns[key]; pk != nil {
		return pk
	}
	pk, err := artifact.BuildKernel(key)
	if err != nil {
		l.t.Fatal(err)
	}
	l.kerns[key] = pk
	return pk
}

// build makes a device with the benchmark's initial memory (or empty
// memory for a restore target), recycling sv when it fits.
func (l *recycleLauncher) build(bcfg core.Config, sv *Salvage, restoreTarget bool) (*Device, *mem.Memory) {
	l.t.Helper()
	m := mem.NewMemory()
	if !restoreTarget {
		m = l.img.NewMemory()
	}
	d, err := NewSalvaged(smallGPU(), bcfg, l.kernel(bcfg).NewSMKernel(), m, sv)
	if err != nil {
		l.t.Fatal(err)
	}
	return d, m
}

// run completes a device and checks the benchmark's functional result.
func (l *recycleLauncher) run(d *Device, m *mem.Memory, bcfg core.Config) *Result {
	l.t.Helper()
	res, err := d.Run(0)
	if err != nil {
		l.t.Fatalf("%s %s: %v", l.bench, rosterName(bcfg), err)
	}
	if chk := l.kernel(bcfg).Benchmark().Check; chk != nil {
		if err := chk(m); err != nil {
			l.t.Fatalf("%s %s: functional check: %v", l.bench, rosterName(bcfg), err)
		}
	}
	return res
}

// carcassKinds are the ways a predecessor run can end before its
// carcass is recycled: run to completion, killed by the cycle limit
// with a busy pipeline, or interrupted mid-run at a cycle boundary.
var carcassKinds = []struct {
	name string
	end  func(d *Device) error
}{
	{"completed", func(d *Device) error {
		_, err := d.Run(0)
		return err
	}},
	{"cycle-limit", func(d *Device) error {
		if _, err := d.Run(150); err == nil {
			return errors.New("150-cycle bound did not fail")
		}
		return nil
	}},
	{"interrupted", func(d *Device) error {
		if _, done, err := d.RunUntil(context.Background(), 0, 150); err != nil || done {
			return fmt.Errorf("pause at 150: done=%v err=%v", done, err)
		}
		d.Interrupt()
		if _, err := d.Run(0); err != ErrInterrupted {
			return fmt.Errorf("interrupted run returned %v", err)
		}
		return nil
	}},
}

// TestRecycledPolicyTransitions is the transition matrix behind the
// engine's carcass pool: for every ordered pair (A, B) of roster
// configs and every way A's run can end, a device built for B from
// A's carcass must run bit-identically to a fresh gpu.New device — full
// Result and functional output. A runs a different benchmark than B,
// so the carcass also carries another kernel's state.
func TestRecycledPolicyTransitions(t *testing.T) {
	prev := newRecycleLauncher(t, "SAD")
	next := newRecycleLauncher(t, "VECTORADD")
	want := make([]*Result, len(recycleRoster))
	for i, b := range recycleRoster {
		d, m := next.build(b, nil, false)
		want[i] = next.run(d, m, b)
	}
	for _, kind := range carcassKinds {
		for _, a := range recycleRoster {
			for j, b := range recycleRoster {
				pd, _ := prev.build(a, nil, false)
				if err := kind.end(pd); err != nil {
					t.Fatalf("%s %s: %v", kind.name, rosterName(a), err)
				}
				sv := pd.Salvage()
				if !sv.Fits(smallGPU()) {
					t.Fatal("carcass does not fit its own geometry")
				}
				d, m := next.build(b, sv, false)
				if got := next.run(d, m, b); !reflect.DeepEqual(got, want[j]) {
					t.Errorf("%s %s -> %s: recycled device diverges from a fresh one",
						kind.name, rosterName(a), rosterName(b))
				}
			}
		}
	}
}

// TestRecycledCrossPolicyRestore pins the rule that a snapshot with
// empty operand windows restores into any window configuration, on
// recycled devices: a baseline snapshot restored into a device built
// from another config's carcass must resume bit-identically to the
// same snapshot restored into a fresh device, for every roster config.
// The benchmark's trace probe relies on this rule when it restores a
// baseline snapshot into a bow-wt device.
func TestRecycledCrossPolicyRestore(t *testing.T) {
	l := newRecycleLauncher(t, "VECTORADD")
	warm, _ := l.build(core.Config{Policy: core.PolicyBaseline}, nil, false)
	if _, done, err := warm.RunUntil(context.Background(), 0, 256); err != nil || done {
		t.Fatalf("warm-up: done=%v err=%v", done, err)
	}
	var blob bytes.Buffer
	if _, err := warm.Snapshot(&blob, nil); err != nil {
		t.Fatal(err)
	}
	for i, b := range recycleRoster {
		fresh, fm := l.build(b, nil, true)
		if _, err := fresh.RestoreBytes(blob.Bytes()); err != nil {
			t.Fatalf("%s: restore into fresh: %v", rosterName(b), err)
		}
		want := l.run(fresh, fm, b)

		a := recycleRoster[(i+1)%len(recycleRoster)]
		pd, _ := l.build(a, nil, false)
		if _, err := pd.Run(0); err != nil {
			t.Fatal(err)
		}
		d, m := l.build(b, pd.Salvage(), true)
		if _, err := d.RestoreBytes(blob.Bytes()); err != nil {
			t.Fatalf("%s: restore into recycled: %v", rosterName(b), err)
		}
		if got := l.run(d, m, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s (carcass of %s): cross-policy resume on a recycled device diverges",
				rosterName(b), rosterName(a))
		}
	}
}

// TestRecycledAfterCycleLimit: a device killed by a 10-cycle bound dies
// with its pipeline full of in-flight instructions and pending events,
// and its carcass must still reset clean — the successor built from it
// runs bit-identically to a solo run on fresh components.
func TestRecycledAfterCycleLimit(t *testing.T) {
	l := newRecycleLauncher(t, "SAD")
	base := core.Config{Policy: core.PolicyBaseline}
	fresh, fm := l.build(base, nil, false)
	want := l.run(fresh, fm, base)
	dead, _ := l.build(base, nil, false)
	if _, err := dead.Run(10); err == nil {
		t.Fatal("10-cycle bound did not fail")
	}
	d, m := l.build(base, dead.Salvage(), false)
	if got := l.run(d, m, base); !reflect.DeepEqual(got, want) {
		t.Error("successor built from an errored carcass diverges from a fresh device")
	}
}

// TestRecycledChain threads one carcass through the whole roster: each
// device is built from its predecessor's carcass — itself recycled, so
// the storage is re-laundered generation after generation, as the
// engine's pool does — and every one must match a fresh device.
func TestRecycledChain(t *testing.T) {
	l := newRecycleLauncher(t, "VECTORADD")
	var sv *Salvage
	for _, b := range recycleRoster {
		fresh, fm := l.build(b, nil, false)
		want := l.run(fresh, fm, b)
		d, m := l.build(b, sv, false)
		if got := l.run(d, m, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: device recycled down the chain diverges from a fresh one", rosterName(b))
		}
		sv = d.Salvage()
	}
}
