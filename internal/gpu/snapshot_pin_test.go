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

	"bow/internal/config"
	"bow/internal/gpu"
	"bow/internal/policy"
)

var updateSnapshotPin = flag.Bool("update-snapshot-pin", false, "rewrite testdata/snapshot_pin.golden from the current code")

// TestSnapshotBytesPinned pins the exact bytes Device.Snapshot writes:
// the length and SHA-256 of the stream for VECTORADD, SAD and LIB under
// every roster row, paused at cycle 256 and at the middle of the run,
// both with work in flight, plus one LRR run with register and trace
// capture on. The rows beyond baseline and bow-wr reach the fields
// those two leave zero (the rivals' stats and the ltrf interval); the
// LRR run, paused a third time once warps have exited, reaches the
// rotation cursor and both capture maps. So a reordered pair of fields
// moves a pinned byte. Snapshots cross process and machine boundaries
// (the WAL, drain migration, bowtrace -resume), so a change to how they
// are encoded must not move a single byte unless the format version
// moves with it. Regenerate (deliberately) with -update-snapshot-pin.
func TestSnapshotBytesPinned(t *testing.T) {
	var b bytes.Buffer
	pin := func(label string, spec []byte, mk func() *gpu.Device, late bool) {
		cold, err := mk().Run(0)
		if err != nil {
			t.Fatalf("%s: cold run: %v", label, err)
		}
		ats := []int64{256, cold.Cycles / 2}
		if late {
			// Warps exit near the end: only then is the register
			// capture map non-empty.
			ats = append(ats, cold.Cycles-cold.Cycles/8)
		}
		live := mk()
		for _, at := range ats {
			if _, done, err := live.RunUntil(context.Background(), 0, at); err != nil || done {
				t.Fatalf("%s: run to %d: done=%v err=%v", label, at, done, err)
			}
			var blob bytes.Buffer
			hash, err := live.Snapshot(&blob, spec)
			if err != nil {
				t.Fatalf("%s@%d: snapshot: %v", label, at, err)
			}
			sum := sha256.Sum256(blob.Bytes())
			fmt.Fprintf(&b, "%s @%d: len=%d sha256=%x content=%s\n", label, at, blob.Len(), sum, hash)
		}
	}
	benches := []string{"VECTORADD", "SAD", "LIB"}
	row := func(bench, name string) {
		bcfg := defaultConfig(t, name)
		spec := []byte(`{"bench":"` + bench + `","policy":"` + name + `"}`)
		pin(bench+" "+name, spec, func() *gpu.Device { return snapDevice(t, bench, bcfg, true) }, false)
	}
	// The original twelve lines first, so the golden only grows.
	for _, bench := range benches {
		for _, name := range []string{policy.Baseline, policy.BOWWR} {
			row(bench, name)
		}
	}
	for _, a := range policy.Roster {
		if a.Name == policy.Baseline || a.Name == policy.BOWWR {
			continue
		}
		for _, bench := range benches {
			row(bench, a.Name)
		}
	}
	bcfg := defaultConfig(t, policy.BOWWR)
	pin("SAD bow-wr lrr capture", []byte(`{"bench":"SAD","policy":"bow-wr","scheduler":"lrr","regs":true,"trace":true}`), func() *gpu.Device {
		g := config.SimDefault()
		g.NumSMs, g.Scheduler = 2, "lrr"
		d := snapDeviceOn(t, g, "SAD", bcfg, true)
		d.CaptureRegs, d.CaptureTrace = true, true
		return d
	}, true)

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
