package simjob

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"bow/internal/artifact"
	"bow/internal/gpu"
)

// raceEnabled reports a -race build (set by race_test.go).
var raceEnabled bool

// TestSnapshotEncodeAllocs bounds what a checkpoint encode allocates:
// once the pooled scratch buffer is warm, each checkpointDevice call on
// a live device may allocate at most 1.25x the blob it returns — the
// exactly sized blob itself plus small change (spec JSON, hex hashes,
// the memory page list). A second full-size copy of the stream, or a
// scratch buffer regrown per call, fails it.
func TestSnapshotEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	spec, err := JobSpec{Bench: "SAD", Policy: PolicyBaseline}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	bcfg, err := spec.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	pk, err := artifact.Default.Kernel(artifact.KeyForConfig(spec.Bench, bcfg, spec.Reorder))
	if err != nil {
		t.Fatal(err)
	}
	img, err := artifact.Default.Image(spec.Bench)
	if err != nil {
		t.Fatal(err)
	}
	d, err := gpu.New(spec.gpuConfig(), bcfg, pk.NewSMKernel(), img.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if _, done, err := d.RunUntil(context.Background(), 0, DefaultWarmupCycles); err != nil || done {
		t.Fatalf("warm-up: done=%v err=%v", done, err)
	}

	// One P, so the pool's per-P slot the warm call fills is the one
	// every measured call reads.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	blob, _, err := checkpointDevice(d, spec)
	if err != nil {
		t.Fatal(err)
	}
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if _, _, err := checkpointDevice(d, spec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
	if limit := 1.25 * float64(len(blob)); perCall > limit {
		t.Fatalf("checkpoint encode allocated %.0f bytes per call for a %d-byte blob (%.2fx; limit 1.25x)",
			perCall, len(blob), perCall/float64(len(blob)))
	}
	t.Logf("%.0f bytes per call for a %d-byte blob (%.3fx)", perCall, len(blob), perCall/float64(len(blob)))
}

// TestCheckpointResumeMatchesColdRun pins the resume invariant the
// cache key design rests on: pausing a job mid-run (ExecuteUntil),
// shipping the checkpoint, and resuming it produces a JobResult
// byte-identical to the uninterrupted cold run of the same spec.
func TestCheckpointResumeMatchesColdRun(t *testing.T) {
	spec := JobSpec{Bench: "SAD", Policy: "bow-wr"}

	cold, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	half := cold.Summary.Cycles / 2
	if half == 0 {
		t.Fatalf("kernel too short to pause: %d cycles", cold.Summary.Cycles)
	}

	paused, err := ExecuteUntil(context.Background(), spec, nil, half)
	if err != nil {
		t.Fatal(err)
	}
	if !paused.Interrupted {
		t.Fatal("pause point reached but outcome not Interrupted")
	}
	if len(paused.Checkpoint) == 0 {
		t.Fatal("interrupted outcome carries no checkpoint")
	}
	if paused.CheckpointCycle != half {
		t.Errorf("checkpoint taken at cycle %d, want %d", paused.CheckpointCycle, half)
	}

	resumeSpec := spec
	resumeSpec.FromCheckpoint = paused.Checkpoint
	resumed, err := Execute(context.Background(), resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed run did not complete")
	}
	if resumed.ResumedFrom != half {
		t.Errorf("ResumedFrom = %d, want %d", resumed.ResumedFrom, half)
	}
	got, err := resumed.Summary.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("resumed run diverged from cold run:\n%s\n%s", want, got)
	}

	// The checkpoint hash must not differ from the cold spec's: a
	// resumed job is the same design point.
	coldHash, _ := spec.Hash()
	resumeHash, _ := resumeSpec.Hash()
	if coldHash != resumeHash {
		t.Errorf("FromCheckpoint changed the spec hash: %s vs %s", coldHash, resumeHash)
	}
}

// TestEngineDrainHandsBackCheckpoint drains an engine and verifies a
// job submitted afterwards comes back as an Interrupted outcome with a
// resumable checkpoint — never as a cached result — and that resuming
// the checkpoint elsewhere completes the job identically to a cold run.
func TestEngineDrainHandsBackCheckpoint(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1})
	e.Drain()
	if !e.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	spec := JobSpec{Bench: "VECTORADD", Policy: "bow-wr"}
	out, err := e.Do(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Interrupted || len(out.Checkpoint) == 0 {
		t.Fatalf("drained engine returned interrupted=%v checkpoint=%d bytes",
			out.Interrupted, len(out.Checkpoint))
	}

	// Interrupted outcomes must not poison the cache.
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.Cache().Get(hash, false); ok {
		t.Error("interrupted outcome was cached")
	}

	// The handed-back checkpoint resumes to the cold run's exact bytes —
	// this is what the coordinator relies on when migrating the job.
	cold, err := Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cold.Summary.CanonicalJSON()
	resumeSpec := spec
	resumeSpec.FromCheckpoint = out.Checkpoint
	resumed, err := Execute(context.Background(), resumeSpec)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := resumed.Summary.CanonicalJSON()
	if !bytes.Equal(want, got) {
		t.Errorf("migrated job diverged from cold run:\n%s\n%s", want, got)
	}
}

// TestDiskCacheCorruptionIsAMiss deliberately damages on-disk cache
// files and asserts each damaged shape is detected by the content-hash
// envelope, treated as a miss, re-simulated, and rewritten valid.
func TestDiskCacheCorruptionIsAMiss(t *testing.T) {
	spec := JobSpec{Bench: "VECTORADD", Policy: "bow-wr"}
	hash, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	want, err := func() ([]byte, error) {
		out, err := Execute(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		return out.Summary.CanonicalJSON()
	}()
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string]func(raw []byte) []byte{
		"truncated": func(raw []byte) []byte { return raw[:len(raw)/2] },
		"bitflip": func(raw []byte) []byte {
			// Flip a byte inside the enclosed result payload, past the
			// envelope's contentHash field.
			mut := append([]byte(nil), raw...)
			mut[len(mut)/2] ^= 0x20
			return mut
		},
		"legacy-bare-result": func([]byte) []byte {
			// The pre-envelope format: canonical JobResult JSON with no
			// content hash. Must not be trusted.
			return want
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seed := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
			if _, err := seed.Do(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, hash+".json")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			// A fresh engine over the damaged dir must re-simulate, not
			// serve the damaged bytes.
			e := newTestEngine(t, Options{Workers: 1, CacheDir: dir})
			out, err := e.Do(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cached != "" {
				t.Fatalf("damaged cache file served as a %q hit", out.Cached)
			}
			got, _ := out.Summary.CanonicalJSON()
			if !bytes.Equal(want, got) {
				t.Errorf("re-simulated result diverged:\n%s\n%s", want, got)
			}
			if _, _, misses := e.Cache().Counters(); misses == 0 {
				t.Error("corruption not counted as a cache miss")
			}

			// The fresh run rewrote the file; it must verify again.
			raw2, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum, ok := DecodeResultEnvelope(raw2, hash)
			if !ok {
				t.Fatal("rewritten cache file does not verify")
			}
			if canon, _ := sum.CanonicalJSON(); !bytes.Equal(want, canon) {
				t.Error("rewritten cache file holds a different result")
			}
		})
	}
}

// TestCheckpointResumeNewPolicies extends the resume invariant to the
// rival architectures: pausing and resuming a carfc, ltrf, or scrf job
// must reproduce the cold run byte for byte. ltrf is the sharpest case
// — its snapshot must carry the prefetch-interval counter and buffer
// contents, or the resumed run drains at the wrong cycles.
func TestCheckpointResumeNewPolicies(t *testing.T) {
	for _, policy := range []string{PolicyCARFC, PolicyLTRF, PolicySCRF} {
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			spec := JobSpec{Bench: "SAD", Policy: policy}
			cold, err := Execute(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := cold.Summary.CanonicalJSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []int64{1, 2, 3} {
				at := cold.Summary.Cycles * q / 4
				if at < 1 {
					at = 1
				}
				paused, err := ExecuteUntil(context.Background(), spec, nil, at)
				if err != nil {
					t.Fatal(err)
				}
				if !paused.Interrupted || len(paused.Checkpoint) == 0 {
					t.Fatalf("@%d: interrupted=%v checkpoint=%d bytes",
						at, paused.Interrupted, len(paused.Checkpoint))
				}
				resumeSpec := spec
				resumeSpec.FromCheckpoint = paused.Checkpoint
				resumed, err := Execute(context.Background(), resumeSpec)
				if err != nil {
					t.Fatal(err)
				}
				got, err := resumed.Summary.CanonicalJSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want, got) {
					t.Errorf("@%d: resumed run diverged from cold run:\n%s\n%s", at, want, got)
				}
			}
		})
	}
}
