package experiments

import (
	"testing"

	"bow/internal/simjob"
)

// TestCrossPolicyStoragePin pins the added per-SM storage the
// cross-policy race reports for every architecture's default design
// point at 32 warps per SM — the companion of simjob's TestPolicyPin
// for the one per-policy fact that lives in this package.
func TestCrossPolicyStoragePin(t *testing.T) {
	want := map[string]int{
		"baseline": 0,
		"bow-wt":   36864,
		"bow-wb":   36864,
		"bow-wr":   36864,
		"rfc":      24576,
		"carfc":    24576,
		"ltrf":     32768,
		"scrf":     0,
	}
	for _, p := range simjob.AllPolicies() {
		cfg, err := simjob.DefaultPolicyConfig(p)
		if err != nil {
			t.Fatal(err)
		}
		got := crossPolicyStorage(cfg, 32)
		if w, ok := want[p]; !ok || got != w {
			t.Errorf("%s: storage %d bytes, pinned %d (present %t)", p, got, w, ok)
		}
	}
	if len(want) != len(simjob.AllPolicies()) {
		t.Errorf("pin has %d policies, roster %d", len(want), len(simjob.AllPolicies()))
	}
}
