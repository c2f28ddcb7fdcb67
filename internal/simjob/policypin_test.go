package simjob

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bow/internal/artifact"
	"bow/internal/core"
)

var updatePin = flag.Bool("update-pin", false, "rewrite testdata/policy_pin.golden from the current code")

// TestPolicyPin pins everything a register-file architecture means to
// the spec layer, over every accepted policy spelling × IW
// {0,1,2,3,7} × Capacity {0,3,6} × BeyondWindow × NoExtend × Reorder:
// whether the spec is accepted, its normalized JSON and content hash,
// the core config it runs, and the compiler pass and kernel key it
// prepares, and what SpecFromConfig maps that config back to. Per
// canonical policy it also pins DefaultPolicyConfig, and a list of
// hand-built configs pins which ones a spec can express. Error texts
// are not pinned, only the verdict. Regenerate (deliberately) with
// -update-pin.
func TestPolicyPin(t *testing.T) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "spellings %s\n", PolicySpellings())
	fmt.Fprintf(&b, "roster %s\n", strings.Join(AllPolicies(), ","))
	for _, sp := range strings.Split(PolicySpellings(), "|") {
		for _, iw := range []int{0, 1, 2, 3, 7} {
			for _, capacity := range []int{0, 3, 6} {
				for _, knobs := range [8][3]bool{
					{false, false, false}, {false, false, true},
					{false, true, false}, {false, true, true},
					{true, false, false}, {true, false, true},
					{true, true, false}, {true, true, true},
				} {
					spec := JobSpec{
						Bench: "VECTORADD", Policy: sp, IW: iw, Capacity: capacity,
						BeyondWindow: knobs[0], NoExtend: knobs[1], Reorder: knobs[2],
					}
					fmt.Fprintf(&b, "%s iw=%d cap=%d bw=%t ne=%t ro=%t: ",
						sp, iw, capacity, knobs[0], knobs[1], knobs[2])
					pinSpec(t, &b, spec)
				}
			}
		}
	}
	for _, p := range AllPolicies() {
		cfg, err := DefaultPolicyConfig(p)
		if err != nil {
			t.Fatalf("DefaultPolicyConfig(%s): %v", p, err)
		}
		spec, ok := SpecFromConfig("VECTORADD", cfg, 1, "", 0)
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "default %s: cfg=%+v spec=%s ok=%t\n", p, cfg, js, ok)
	}
	// Hand-built configs off the roster's design points: which of them
	// a spec can express, and as what.
	const noWindow = 1 << 30
	for _, cfg := range []core.Config{
		{},
		{IW: 3},
		{IW: 3, Capacity: 6, BeyondWindow: true},
		{Policy: core.PolicyBaseline, IW: 3, Capacity: 6},
		{Policy: core.PolicyWriteThrough},
		{Policy: core.PolicyWriteBack, IW: 4, Capacity: 5, NoExtend: true, BeyondWindow: true},
		{Policy: core.PolicyWriteBack, IW: 3, Capacity: 6, ForwardThroughPort: true},
		{Policy: core.PolicyWriteBack, IW: noWindow, Capacity: 6, ForwardThroughPort: true},
		{Policy: core.PolicyWriteBack, IW: noWindow, Capacity: 0, ForwardThroughPort: true},
		{Policy: core.PolicyWriteBack, IW: noWindow, Capacity: 6, ForwardThroughPort: true, NoExtend: true},
		{Policy: core.PolicyCompilerHints, IW: 3, Capacity: 6, ForwardThroughPort: true},
		{Policy: core.PolicyCARFC, IW: noWindow, Capacity: 6},
		{Policy: core.PolicyCARFC, IW: noWindow, Capacity: 4, ForwardThroughPort: true},
		{Policy: core.PolicyCARFC, IW: 3, Capacity: 6, ForwardThroughPort: true},
		{Policy: core.PolicyLTRF, IW: noWindow, Capacity: 3},
		{Policy: core.PolicyLTRF, IW: noWindow, Capacity: 8, ForwardThroughPort: true},
		{Policy: core.PolicySCRF, IW: 3},
		{Policy: core.PolicySCRF, ForwardThroughPort: true},
	} {
		spec, ok := SpecFromConfig("VECTORADD", cfg, 2, "lrr", 99)
		js, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "from %+v: spec=%s ok=%t\n", cfg, js, ok)
	}

	path := filepath.Join("testdata", "policy_pin.golden")
	if *updatePin {
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
		t.Fatalf("%v (generate with -update-pin)", err)
	}
	got := strings.Split(b.String(), "\n")
	exp := strings.Split(string(want), "\n")
	if len(got) != len(exp) {
		t.Errorf("pin has %d lines, golden %d", len(got), len(exp))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Errorf("line %d drifted\n got  %s\n want %s", i+1, got[i], exp[i])
			if bad++; bad == 10 {
				t.Fatal("too many drifted lines")
			}
		}
	}
}

// pinSpec renders one combination's verdict and derived facts.
func pinSpec(t *testing.T, b *bytes.Buffer, spec JobSpec) {
	t.Helper()
	n, err := spec.Normalize()
	if err != nil {
		b.WriteString("reject\n")
		return
	}
	js, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	h, err := spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := n.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	hints, param := artifact.PassForPolicy(cfg)
	keyParam := param
	if n.Reorder && keyParam == 0 {
		keyParam = cfg.IW
	}
	key := artifact.KeyFor(n.Bench, n.Reorder, hints, keyParam)
	back, ok := SpecFromConfig(n.Bench, cfg, n.SMs, n.Scheduler, n.MaxCycles)
	bjs, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "accept %s hash=%s cfg=%+v pass=%q/%d key=%v from=%s/%t\n",
		js, h, cfg, hints, param, key, bjs, ok)
}
