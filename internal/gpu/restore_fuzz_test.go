package gpu

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"bow/internal/artifact"
	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/mem"
	"bow/internal/snap"
	"bow/internal/workloads"
)

// fuzzWarmup is the cycle the seed payload is captured at: mid-run, with
// global loads in flight, operand windows and register values live.
const fuzzWarmup = 60

// fuzzGPU is a one-SM chip with few warp slots and small caches, so the
// seed payload stays small and mutations land in framing and counts
// rather than in tag arrays and register values.
func fuzzGPU() config.GPU {
	g := smallGPU()
	g.MaxWarpsPerSM, g.L1SizeKB, g.L2SizeKB = 4, 4, 16
	return g
}

// FuzzRestore feeds arbitrary payloads to the snapshot section decoders.
// Each input is wrapped in a header carrying the target device's own
// config and kernel hashes, so mutations get past the hash checks and
// reach every decoder. A restore may fail, but only with an error: it
// must not panic, and must not allocate more than 64 bytes per input
// byte plus 1 MiB. The seed — a real mid-run payload — must round-trip:
// restored and re-encoded, it reproduces itself byte for byte.
func FuzzRestore(f *testing.F) {
	bcfg := core.Config{IW: 3, Policy: core.PolicyCompilerHints}
	b := &workloads.Benchmark{Name: "fuzz", Source: vecaddSrc, GridDim: 2, BlockDim: 64, Params: []uint32{0x1000, 0x2000, 0x3000}}
	hints, param := artifact.PassForPolicy(bcfg)
	pk, err := artifact.BuildKernelFor(b, artifact.KeyFor(b.Name, false, hints, param))
	if err != nil {
		f.Fatal(err)
	}
	newDevice := func(tb testing.TB) *Device {
		d, err := New(fuzzGPU(), bcfg, pk.NewSMKernel(), mem.NewMemory())
		if err != nil {
			tb.Fatal(err)
		}
		return d
	}
	warm := newDevice(f)
	if _, done, err := warm.RunUntil(context.Background(), 0, fuzzWarmup); err != nil || done {
		f.Fatalf("warm-up: done=%v err=%v", done, err)
	}
	seed, err := payloadOf(warm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, payload []byte) {
		d := newDevice(t)
		var blob bytes.Buffer
		h := snap.Header{Cycle: fuzzWarmup, ConfigHash: d.ConfigHash(), KernelHash: d.KernelHash()}
		if _, err := snap.Encode(&blob, h, payload); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := d.RestoreBytes(blob.Bytes())
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, 64*uint64(len(payload))+1<<20; grew > limit {
			t.Fatalf("restoring a %d-byte payload allocated %d bytes (limit %d)", len(payload), grew, limit)
		}
		if !bytes.Equal(payload, seed) {
			return
		}
		if err != nil {
			t.Fatalf("seed payload does not restore: %v", err)
		}
		again, err := payloadOf(d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, seed) {
			t.Fatal("restore∘snapshot does not round-trip the seed payload")
		}
	})
}

// payloadOf encodes d's snapshot payload on its own, without the stream
// header and content hash around it.
func payloadOf(d *Device) ([]byte, error) {
	enc := snap.NewEncoder()
	d.State(snap.Save(enc))
	return enc.Bytes()
}
