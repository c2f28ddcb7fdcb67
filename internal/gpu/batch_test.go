package gpu

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"bow/internal/artifact"
	"bow/internal/core"
)

// batchPolicies is the window-config column one lockstep batch carries:
// same benchmark, different policies and window sizes.
var batchPolicies = []core.Config{
	{Policy: core.PolicyBaseline},
	{IW: 2, Policy: core.PolicyWriteThrough},
	{IW: 3, Policy: core.PolicyWriteThrough},
	{IW: 3, Policy: core.PolicyWriteBack},
	{IW: 3, Policy: core.PolicyCompilerHints},
	{IW: 5, Policy: core.PolicyCompilerHints},
}

// TestBatchLockstepBitIdentical runs a window-config batch over one
// shared prepared kernel and demands each device's Result and output
// memory be bit-identical to a solo run of the same configuration.
// This is the property that lets batched sweeps cache their results
// under the cold spec hash.
func TestBatchLockstepBitIdentical(t *testing.T) {
	for _, bench := range []string{"VECTORADD", "SAD"} {
		img, err := artifact.BuildImage(bench)
		if err != nil {
			t.Fatal(err)
		}

		build := func(bcfg core.Config) *Device {
			t.Helper()
			hints, param := artifact.PassForPolicy(bcfg)
			pk, err := artifact.BuildKernel(artifact.KeyFor(bench, false, hints, param))
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(smallGPU(), bcfg, pk.NewSMKernel(), img.NewMemory())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}

		solo := make([]*Result, len(batchPolicies))
		soloMem := make([][]uint32, len(batchPolicies))
		for i, bcfg := range batchPolicies {
			d := build(bcfg)
			res, err := d.Run(0)
			if err != nil {
				t.Fatalf("%s solo %v: %v", bench, bcfg.Policy, err)
			}
			solo[i] = res
			if soloMem[i], err = d.Global.ReadWords(0, 64); err != nil {
				t.Fatal(err)
			}
		}

		// Bit-identity must hold at any interleaving granularity: strict
		// cycle lockstep, a fine odd stride, and the default (each device
		// runs a whole turn).
		for _, stride := range []int64{1, 997, DefaultBatchStride} {
			devs := make([]*Device, len(batchPolicies))
			for i, bcfg := range batchPolicies {
				devs[i] = build(bcfg)
			}
			batch, err := NewBatch(devs, nil)
			if err != nil {
				t.Fatal(err)
			}
			batch.SetStride(stride)
			results, errs := batch.Run(context.Background())
			for i, bcfg := range batchPolicies {
				if errs[i] != nil {
					t.Fatalf("%s batched %v stride %d: %v", bench, bcfg.Policy, stride, errs[i])
				}
				if results[i].Cycles != solo[i].Cycles {
					t.Errorf("%s %v stride %d: batched %d cycles, solo %d",
						bench, bcfg.Policy, stride, results[i].Cycles, solo[i].Cycles)
				}
				if !reflect.DeepEqual(results[i].Stats, solo[i].Stats) {
					t.Errorf("%s %v stride %d: RunStats diverge\nbatched %+v\nsolo    %+v",
						bench, bcfg.Policy, stride, results[i].Stats, solo[i].Stats)
				}
				if !reflect.DeepEqual(results[i].Engine, solo[i].Engine) {
					t.Errorf("%s %v stride %d: engine stats diverge", bench, bcfg.Policy, stride)
				}
				if !reflect.DeepEqual(results[i].RF, solo[i].RF) {
					t.Errorf("%s %v stride %d: regfile stats diverge", bench, bcfg.Policy, stride)
				}
				out, err := devs[i].Global.ReadWords(0, 64)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(out, soloMem[i]) {
					t.Errorf("%s %v stride %d: output memory diverges", bench, bcfg.Policy, stride)
				}
			}
			if batch.Ticks() == 0 || batch.DeviceCycles() == 0 {
				t.Errorf("%s stride %d: batch counters empty (ticks=%d devCycles=%d)",
					bench, stride, batch.Ticks(), batch.DeviceCycles())
			}
			if occ := batch.Occupancy(); occ <= 0 || occ > 1 {
				t.Errorf("%s stride %d: occupancy %v out of range", bench, stride, occ)
			}
		}
	}
}

// TestBatchFuncSalvageBitIdentical drives the lazy path the batched
// sweep runner uses: slots built on demand by NewBatchFunc, each
// recycling the carcass of the device the batch last retired through
// NewSalvaged, results drained through OnFinish. Every recycled device must be bit-identical
// to a solo run on fresh components, and OnFinish must fire once per
// slot in slot order (the default stride runs each device to
// completion before its successor is built).
func TestBatchFuncSalvageBitIdentical(t *testing.T) {
	bench := "VECTORADD"
	img, err := artifact.BuildImage(bench)
	if err != nil {
		t.Fatal(err)
	}
	solo := make([]*Result, len(batchPolicies))
	for i, bcfg := range batchPolicies {
		hints, param := artifact.PassForPolicy(bcfg)
		pk, err := artifact.BuildKernel(artifact.KeyFor(bench, false, hints, param))
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(smallGPU(), bcfg, pk.NewSMKernel(), img.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		if solo[i], err = d.Run(0); err != nil {
			t.Fatalf("solo %v: %v", bcfg.Policy, err)
		}
	}

	salvaged := 0
	var carcass *Salvage
	build := func(slot int) (*Device, error) {
		bcfg := batchPolicies[slot]
		hints, param := artifact.PassForPolicy(bcfg)
		pk, err := artifact.BuildKernel(artifact.KeyFor(bench, false, hints, param))
		if err != nil {
			return nil, err
		}
		sv := carcass
		carcass = nil
		if sv != nil {
			salvaged++
		}
		return NewSalvaged(smallGPU(), bcfg, pk.NewSMKernel(), img.NewMemory(), sv)
	}
	retire := func(d *Device) { carcass = d.Salvage() }
	batch, err := NewBatchFunc(len(batchPolicies), nil, build, retire)
	if err != nil {
		t.Fatal(err)
	}
	var finished []int
	batch.OnFinish(func(slot int, res *Result, err error) {
		finished = append(finished, slot)
	})
	results, errs := batch.Run(context.Background())
	for i, bcfg := range batchPolicies {
		if errs[i] != nil {
			t.Fatalf("slot %d (%v): %v", i, bcfg.Policy, errs[i])
		}
		if !reflect.DeepEqual(results[i], solo[i]) {
			t.Errorf("slot %d (%v iw=%d): recycled result diverges from solo",
				i, bcfg.Policy, bcfg.IW)
		}
	}
	// Every slot after the first had a carcass to recycle.
	if want := len(batchPolicies) - 1; salvaged != want {
		t.Errorf("salvaged %d carcasses, want %d", salvaged, want)
	}
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(finished, want) {
		t.Errorf("OnFinish order %v, want %v", finished, want)
	}
}

// TestBatchFuncSalvageAfterError proves a carcass harvested from a
// device that died mid-flight (cycle-limit error, pipeline full of
// in-flight instructions and pending events) still resets clean: the
// successor built from it must be bit-identical to a solo run on fresh
// components.
func TestBatchFuncSalvageAfterError(t *testing.T) {
	pk, err := artifact.BuildKernel(artifact.KeyFor("SAD", false, artifact.HintsNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.BuildImage("SAD")
	if err != nil {
		t.Fatal(err)
	}
	soloDev, err := New(smallGPU(), core.Config{Policy: core.PolicyBaseline}, pk.NewSMKernel(), img.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	solo, err := soloDev.Run(0)
	if err != nil {
		t.Fatal(err)
	}

	salvaged := 0
	var carcass *Salvage
	build := func(slot int) (*Device, error) {
		sv := carcass
		carcass = nil
		if sv != nil {
			salvaged++
		}
		return NewSalvaged(smallGPU(), core.Config{Policy: core.PolicyBaseline}, pk.NewSMKernel(), img.NewMemory(), sv)
	}
	retire := func(d *Device) { carcass = d.Salvage() }
	// Slot 0 cannot finish in 10 cycles and dies with its pipeline busy.
	batch, err := NewBatchFunc(2, []int64{10, 0}, build, retire)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := batch.Run(context.Background())
	if errs[0] == nil {
		t.Fatal("10-cycle bound did not fail")
	}
	if errs[1] != nil {
		t.Fatalf("salvaged successor failed: %v", errs[1])
	}
	if salvaged != 1 {
		t.Fatalf("salvaged %d carcasses, want 1 (from the errored slot)", salvaged)
	}
	if !reflect.DeepEqual(results[1], solo) {
		t.Error("successor built from a dirty (errored) carcass diverges from solo")
	}
}

// TestBatchFuncBuildErrorIsolated proves a slot whose builder fails is
// reported like a device error without stopping its siblings.
func TestBatchFuncBuildErrorIsolated(t *testing.T) {
	pk, err := artifact.BuildKernel(artifact.KeyFor("VECTORADD", false, artifact.HintsNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.BuildImage("VECTORADD")
	if err != nil {
		t.Fatal(err)
	}
	build := func(slot int) (*Device, error) {
		if slot == 0 {
			return nil, fmt.Errorf("boom")
		}
		return New(smallGPU(), core.Config{Policy: core.PolicyBaseline}, pk.NewSMKernel(), img.NewMemory())
	}
	batch, err := NewBatchFunc(2, nil, build, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, errs := batch.Run(context.Background())
	if errs[0] == nil || errs[0].Error() != "boom" {
		t.Fatalf("slot 0 error = %v, want boom", errs[0])
	}
	if errs[1] != nil {
		t.Fatalf("sibling failed: %v", errs[1])
	}
	if results[1] == nil || results[1].Cycles == 0 {
		t.Fatal("sibling did not complete")
	}
}

// TestBatchIsolatesDeviceErrors proves one device blowing its cycle
// budget doesn't stop its siblings.
func TestBatchIsolatesDeviceErrors(t *testing.T) {
	pk, err := artifact.BuildKernel(artifact.KeyFor("SAD", false, artifact.HintsNone, 0))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.BuildImage("SAD")
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Device {
		d, err := New(smallGPU(), core.Config{Policy: core.PolicyBaseline}, pk.NewSMKernel(), img.NewMemory())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	devs := []*Device{mk(), mk()}
	batch, err := NewBatch(devs, []int64{10, 0}) // slot 0 cannot finish in 10 cycles
	if err != nil {
		t.Fatal(err)
	}
	results, errs := batch.Run(context.Background())
	if errs[0] == nil {
		t.Fatal("10-cycle bound did not fail")
	}
	if errs[1] != nil {
		t.Fatalf("sibling failed too: %v", errs[1])
	}
	if results[1] == nil || results[1].Cycles == 0 {
		t.Fatal("sibling did not complete")
	}
}
