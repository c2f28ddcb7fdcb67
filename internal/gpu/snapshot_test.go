package gpu_test

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/gpu"
	"bow/internal/mem"
	"bow/internal/policy"
	"bow/internal/trace"
)

// snapDevice builds a fresh device for a named benchmark. When prime is
// true the benchmark's input arrays are initialized (a restore target
// must start from empty memory instead — the snapshot carries it).
func snapDevice(t *testing.T, bench string, bcfg core.Config, prime bool) *gpu.Device {
	t.Helper()
	g := config.SimDefault()
	g.NumSMs = 2
	return snapDeviceOn(t, g, bench, bcfg, prime)
}

// snapDeviceOn is snapDevice on the chip configuration g.
func snapDeviceOn(t *testing.T, g config.GPU, bench string, bcfg core.Config, prime bool) *gpu.Device {
	t.Helper()
	pk, err := artifact.BuildKernel(artifact.KeyForConfig(bench, bcfg, false))
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	if b := pk.Benchmark(); prime && b.Init != nil {
		if err := b.Init(m); err != nil {
			t.Fatal(err)
		}
	}
	d, err := gpu.New(g, bcfg, pk.NewSMKernel(), m)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// defaultConfig is roster architecture name's default design point.
func defaultConfig(t *testing.T, name string) core.Config {
	t.Helper()
	a, ok := policy.Lookup(name)
	if !ok {
		t.Fatalf("unknown architecture %s", name)
	}
	cfg, err := a.DefaultConfig()
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func collectEvents(tr *trace.CycleTracer) []trace.Event {
	var out []trace.Event
	tr.Each(func(e trace.Event) { out = append(out, e) })
	return out
}

// TestSnapshotRestoreDifferential is the subsystem's headline oracle:
// for three policies on three workloads, pause a run at several cycles,
// snapshot, restore into a fresh device, continue — and demand the
// resumed run is bit-identical to a cold run, in its full Result and in
// its cycle-event trace from the snapshot point on.
func TestSnapshotRestoreDifferential(t *testing.T) {
	benches := []string{"VECTORADD", "LIB", "SAD"}
	policies := []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 2, Policy: core.PolicyWriteThrough},
		{IW: 3, Policy: core.PolicyCompilerHints},
		defaultConfig(t, policy.CARFC),
		defaultConfig(t, policy.LTRF),
		defaultConfig(t, policy.SCRF),
	}
	for _, bench := range benches {
		for _, bcfg := range policies {
			// Cold traced run: the oracle.
			cold := snapDevice(t, bench, bcfg, true)
			coldTrace := trace.NewCycleTracer(trace.DefaultTraceCapacity)
			cold.Tracer = coldTrace
			cold.CaptureRegs = true
			cold.CaptureTrace = true
			wantRes, err := cold.Run(0)
			if err != nil {
				t.Fatalf("%s/%v: cold run: %v", bench, bcfg.Policy, err)
			}
			if coldTrace.Dropped() != 0 {
				t.Fatalf("%s/%v: trace ring overflowed; enlarge capacity", bench, bcfg.Policy)
			}
			wantEvents := collectEvents(coldTrace)
			wantMem := cold.Global.Snapshot()

			for _, q := range []int64{1, 2, 3} { // quarter points of the run
				snapAt := wantRes.Cycles * q / 4
				if snapAt < 1 {
					snapAt = 1
				}
				// Untraced run to the pause point; snapshot there. Tracing
				// must not be needed for the state to match.
				live := snapDevice(t, bench, bcfg, true)
				live.CaptureRegs = true
				live.CaptureTrace = true
				_, done, err := live.RunUntil(context.Background(), 0, snapAt)
				if err != nil {
					t.Fatalf("%s/%v: run to %d: %v", bench, bcfg.Policy, snapAt, err)
				}
				if done {
					continue // kernel finished before the pause point
				}
				var blob bytes.Buffer
				hash, err := live.Snapshot(&blob, []byte(`{"bench":"`+bench+`"}`))
				if err != nil {
					t.Fatalf("%s/%v@%d: snapshot: %v", bench, bcfg.Policy, snapAt, err)
				}
				if hash == "" {
					t.Fatal("empty content hash")
				}

				// Restore into a fresh device (empty memory) and continue,
				// traced.
				restored := snapDevice(t, bench, bcfg, false)
				resTrace := trace.NewCycleTracer(trace.DefaultTraceCapacity)
				restored.Tracer = resTrace
				restored.CaptureRegs = true
				restored.CaptureTrace = true
				h, err := restored.Restore(bytes.NewReader(blob.Bytes()))
				if err != nil {
					t.Fatalf("%s/%v@%d: restore: %v", bench, bcfg.Policy, snapAt, err)
				}
				if h.Cycle != snapAt {
					t.Fatalf("header cycle %d, want %d", h.Cycle, snapAt)
				}

				// The restored state must re-serialize byte-identically.
				var blob2 bytes.Buffer
				hash2, err := restored.Snapshot(&blob2, []byte(`{"bench":"`+bench+`"}`))
				if err != nil {
					t.Fatalf("%s/%v@%d: re-snapshot: %v", bench, bcfg.Policy, snapAt, err)
				}
				if hash2 != hash || !bytes.Equal(blob.Bytes(), blob2.Bytes()) {
					t.Fatalf("%s/%v@%d: restored state does not re-serialize identically", bench, bcfg.Policy, snapAt)
				}

				gotRes, err := restored.Run(0)
				if err != nil {
					t.Fatalf("%s/%v@%d: resumed run: %v", bench, bcfg.Policy, snapAt, err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s/%v@%d: resumed Result differs from cold run\ngot:  %+v\nwant: %+v",
						bench, bcfg.Policy, snapAt, gotRes.Stats, wantRes.Stats)
				}
				if got := restored.Global.Snapshot(); !reflect.DeepEqual(got, wantMem) {
					t.Fatalf("%s/%v@%d: resumed memory end state differs", bench, bcfg.Policy, snapAt)
				}

				// The resumed trace must equal the cold trace's tail.
				var wantTail []trace.Event
				for _, e := range wantEvents {
					if e.Cycle > snapAt {
						wantTail = append(wantTail, e)
					}
				}
				gotTail := collectEvents(resTrace)
				if len(gotTail) != len(wantTail) {
					t.Fatalf("%s/%v@%d: resumed trace has %d events, cold tail has %d",
						bench, bcfg.Policy, snapAt, len(gotTail), len(wantTail))
				}
				for i := range wantTail {
					if gotTail[i] != wantTail[i] {
						t.Fatalf("%s/%v@%d: trace diverges at event %d: got %+v, want %+v",
							bench, bcfg.Policy, snapAt, i, gotTail[i], wantTail[i])
					}
				}
			}
		}
	}
}

// TestSnapshotCycleFuzz round-trips snapshots taken at random cycles
// and requires every resumed run to finish with the cold run's exact
// Result.
func TestSnapshotCycleFuzz(t *testing.T) {
	const bench = "LIB"
	bcfg := core.Config{IW: 3, Policy: core.PolicyWriteBack}
	cold := snapDevice(t, bench, bcfg, true)
	wantRes, err := cold.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(0x5AFE))
	trials := 8
	if testing.Short() {
		trials = 3
	}
	for i := 0; i < trials; i++ {
		snapAt := 1 + r.Int63n(wantRes.Cycles-1)
		live := snapDevice(t, bench, bcfg, true)
		if _, done, err := live.RunUntil(context.Background(), 0, snapAt); err != nil || done {
			t.Fatalf("run to %d: done=%v err=%v", snapAt, done, err)
		}
		var blob bytes.Buffer
		if _, err := live.Snapshot(&blob, nil); err != nil {
			t.Fatalf("snapshot @%d: %v", snapAt, err)
		}
		restored := snapDevice(t, bench, bcfg, false)
		if _, err := restored.Restore(bytes.NewReader(blob.Bytes())); err != nil {
			t.Fatalf("restore @%d: %v", snapAt, err)
		}
		gotRes, err := restored.Run(0)
		if err != nil {
			t.Fatalf("resume @%d: %v", snapAt, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Fatalf("snapshot @%d: resumed Result differs from cold run", snapAt)
		}
	}
}

// TestSnapshotRejectsMismatchedTarget: restoring onto a device with a
// different chip config or kernel must fail up front, not corrupt state.
func TestSnapshotRejectsMismatchedTarget(t *testing.T) {
	bcfg := core.Config{Policy: core.PolicyBaseline}
	live := snapDevice(t, "VECTORADD", bcfg, true)
	if _, done, err := live.RunUntil(context.Background(), 0, 5); err != nil || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	var blob bytes.Buffer
	if _, err := live.Snapshot(&blob, nil); err != nil {
		t.Fatal(err)
	}
	other := snapDevice(t, "LIB", bcfg, false)
	if _, err := other.Restore(bytes.NewReader(blob.Bytes())); err == nil {
		t.Fatal("restore accepted a snapshot of a different kernel")
	}
}

// TestSnapshotInterrupt: Interrupt stops the loop with ErrInterrupted,
// the paused device snapshots, and the resumed run matches a cold run.
func TestSnapshotInterrupt(t *testing.T) {
	bcfg := core.Config{IW: 2, Policy: core.PolicyWriteThrough}
	cold := snapDevice(t, "VECTORADD", bcfg, true)
	wantRes, err := cold.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	live := snapDevice(t, "VECTORADD", bcfg, true)
	live.Interrupt()
	if _, err := live.Run(0); err != gpu.ErrInterrupted {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	// Interrupted at cycle 0 (before any work): snapshot and resume.
	var blob bytes.Buffer
	if _, err := live.Snapshot(&blob, nil); err != nil {
		t.Fatal(err)
	}
	restored := snapDevice(t, "VECTORADD", bcfg, false)
	if _, err := restored.Restore(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	gotRes, err := restored.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatal("run resumed after interrupt differs from cold run")
	}
	// Interrupt mid-run, too.
	live2 := snapDevice(t, "VECTORADD", bcfg, true)
	if _, done, err := live2.RunUntil(context.Background(), 0, wantRes.Cycles/2); err != nil || done {
		t.Fatalf("done=%v err=%v", done, err)
	}
	live2.Interrupt()
	if _, err := live2.Run(0); err != gpu.ErrInterrupted {
		t.Fatalf("got %v, want ErrInterrupted", err)
	}
	blob.Reset()
	if _, err := live2.Snapshot(&blob, nil); err != nil {
		t.Fatal(err)
	}
	restored2 := snapDevice(t, "VECTORADD", bcfg, false)
	if _, err := restored2.Restore(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	gotRes2, err := restored2.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes2, wantRes) {
		t.Fatal("run resumed after mid-run interrupt differs from cold run")
	}
}
