package gpu_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bow/internal/policy"
)

var updateSnapshotPin = flag.Bool("update-snapshot-pin", false, "rewrite testdata/snapshot_pin.golden from the current code")

// TestSnapshotBytesPinned pins the exact bytes Device.Snapshot writes:
// the length and SHA-256 of the stream for VECTORADD, SAD and LIB under
// baseline and bow-wr, paused at cycle 256 and at the middle of the
// run, both with work in flight. Snapshots cross process and machine
// boundaries (the WAL, drain migration, bowtrace -resume), so a change
// to how they are encoded must not move a single byte unless the
// format version moves with it. Regenerate (deliberately) with
// -update-snapshot-pin.
func TestSnapshotBytesPinned(t *testing.T) {
	var b bytes.Buffer
	for _, bench := range []string{"VECTORADD", "SAD", "LIB"} {
		for _, name := range []string{policy.Baseline, policy.BOWWR} {
			bcfg := defaultConfig(t, name)
			cold, err := snapDevice(t, bench, bcfg, true).Run(0)
			if err != nil {
				t.Fatalf("%s/%s: cold run: %v", bench, name, err)
			}
			live := snapDevice(t, bench, bcfg, true)
			spec := []byte(`{"bench":"` + bench + `","policy":"` + name + `"}`)
			for _, at := range []int64{256, cold.Cycles / 2} {
				if _, done, err := live.RunUntil(context.Background(), 0, at); err != nil || done {
					t.Fatalf("%s/%s: run to %d: done=%v err=%v", bench, name, at, done, err)
				}
				var blob bytes.Buffer
				hash, err := live.Snapshot(&blob, spec)
				if err != nil {
					t.Fatalf("%s/%s@%d: snapshot: %v", bench, name, at, err)
				}
				sum := sha256.Sum256(blob.Bytes())
				fmt.Fprintf(&b, "%s %s @%d: len=%d sha256=%x content=%s\n", bench, name, at, blob.Len(), sum, hash)
			}
		}
	}

	path := filepath.Join("testdata", "snapshot_pin.golden")
	if *updateSnapshotPin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-snapshot-pin to create it)", err)
	}
	got, exp := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("pin has %d lines, golden %d", len(got), len(exp))
	}
	for i := range min(len(got), len(exp)) {
		if got[i] != exp[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
		}
	}
}
