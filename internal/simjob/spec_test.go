package simjob

import (
	"strings"
	"testing"

	"bow/internal/core"
	"bow/internal/policy"
)

// rowConfig is roster architecture name's engine config at the given
// buffer capacity (0 = the row's default).
func rowConfig(t *testing.T, name string, capacity int) core.Config {
	t.Helper()
	a, ok := policy.Lookup(name)
	if !ok {
		t.Fatalf("unknown architecture %s", name)
	}
	cfg, err := a.Config(policy.DefaultIW, capacity, false, false)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestNormalizeDefaults(t *testing.T) {
	s, err := JobSpec{Bench: "VECTORADD", Policy: "bow"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Policy != PolicyBOWWT || s.IW != 3 || s.Capacity != 12 ||
		s.SMs != 1 || s.Scheduler != "gto" {
		t.Errorf("unexpected normalized spec: %+v", s)
	}

	base, err := JobSpec{Bench: "VECTORADD", Policy: "baseline", IW: 5, Capacity: 9}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if base.IW != 0 || base.Capacity != 0 {
		t.Errorf("baseline kept window fields: %+v", base)
	}

	r, err := JobSpec{Bench: "LIB", Policy: "rfc"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if r.Capacity != 6 || r.IW != 0 { // the paper's RFC comparison sizing

		t.Errorf("rfc normalization: %+v", r)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []JobSpec{
		{Policy: "bow-wr"},                                       // no bench
		{Bench: "NOPE", Policy: "bow-wr"},                        // unknown bench
		{Bench: "VECTORADD", Policy: "turbo"},                    // unknown policy
		{Bench: "VECTORADD", Policy: "baseline", NoExtend: true}, // knob without window
		{Bench: "VECTORADD", Policy: "rfc", BeyondWindow: true},  // knob on rfc
		{Bench: "VECTORADD", Policy: "bow-wr", Scheduler: "fifo"},
		{Bench: "VECTORADD", Policy: "bow-wr", IW: 1},              // below core minimum
		{Bench: "VECTORADD", Policy: "bow-wr", BeyondWindow: true}, // unsound with hints
		{Bench: "VECTORADD", Policy: "bow-wb", MaxCycles: -1},
	}
	for _, s := range bad {
		if _, err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an invalid spec", s)
		}
	}
}

func TestHashStability(t *testing.T) {
	// Equivalent spellings hash identically.
	pairs := [][2]JobSpec{
		{{Bench: "VECTORADD", Policy: "bow"}, {Bench: "VECTORADD", Policy: "bow-wt", IW: 3, Capacity: 12, SMs: 1, Scheduler: "gto"}},
		{{Bench: "VECTORADD", Policy: "baseline", IW: 4}, {Bench: "VECTORADD", Policy: "baseline"}},
		{{Bench: "LIB", Policy: "hints"}, {Bench: "LIB", Policy: "bow-wr"}},
	}
	for _, p := range pairs {
		h0, err := p[0].Hash()
		if err != nil {
			t.Fatal(err)
		}
		h1, err := p[1].Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h0 != h1 {
			t.Errorf("equivalent specs hash differently:\n%+v -> %s\n%+v -> %s", p[0], h0, p[1], h1)
		}
	}
	// Distinct points hash differently.
	h0, _ := JobSpec{Bench: "VECTORADD", Policy: "bow-wr"}.Hash()
	h1, _ := JobSpec{Bench: "VECTORADD", Policy: "bow-wr", IW: 4}.Hash()
	h2, _ := JobSpec{Bench: "VECTORADD", Policy: "bow-wr", Trace: true}.Hash()
	if h0 == h1 || h0 == h2 {
		t.Errorf("distinct specs collide: %s %s %s", h0, h1, h2)
	}
}

func TestSpecFromConfigRoundTrip(t *testing.T) {
	cases := []core.Config{
		{Policy: core.PolicyBaseline},
		{IW: 3, Policy: core.PolicyWriteThrough},
		{IW: 4, Capacity: 8, Policy: core.PolicyWriteBack, NoExtend: true},
		{IW: 3, Capacity: 6, Policy: core.PolicyWriteBack, BeyondWindow: true},
		{IW: 3, Capacity: 6, Policy: core.PolicyCompilerHints},
		rowConfig(t, PolicyRFC, 0),
		rowConfig(t, PolicyCARFC, 0),
		rowConfig(t, PolicyCARFC, 2),
		rowConfig(t, PolicyLTRF, 0),
		rowConfig(t, PolicyLTRF, 3),
		rowConfig(t, PolicySCRF, 0),
	}
	for _, bcfg := range cases {
		norm, err := bcfg.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		spec, ok := SpecFromConfig("VECTORADD", norm, 1, "", 0)
		if !ok {
			t.Fatalf("SpecFromConfig rejected %+v", norm)
		}
		spec, err = spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		back, err := spec.coreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if back != norm {
			t.Errorf("round trip drifted:\nin  %+v\nout %+v", norm, back)
		}
	}

	// Hand-built configs that deviate from each comparator's canonical
	// shape cannot be represented as specs.
	odd := []core.Config{
		{IW: 5, Capacity: 2, Policy: core.PolicyWriteBack, ForwardThroughPort: true},
		{Policy: core.PolicyCARFC, Capacity: 4},             // carfc without its window/FTP shape
		{Policy: core.PolicyLTRF, Capacity: 4},              // ltrf without its window shape
		{Policy: core.PolicySCRF, IW: 3, Capacity: 4},       // scrf takes no window knobs
		{Policy: core.PolicySCRF, ForwardThroughPort: true}, // nor FTP
	}
	for _, bcfg := range odd {
		if _, ok := SpecFromConfig("VECTORADD", bcfg, 1, "", 0); ok {
			t.Errorf("SpecFromConfig accepted non-canonical config %+v", bcfg)
		}
	}
}

// TestPolicyAliasRoundTrip drives every accepted spelling through
// CanonicalPolicy and the full Normalize/Hash pipeline: each alias must
// land on its canonical name, and a spec written with the alias must
// hash identically to one written canonically — the cache key must not
// depend on how the user spelled the policy.
func TestPolicyAliasRoundTrip(t *testing.T) {
	for _, p := range policy.Roster {
		spellings := append([]string{p.Name}, p.Aliases...)
		canonHash, err := JobSpec{Bench: "VECTORADD", Policy: p.Name}.Hash()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, sp := range spellings {
			got, err := CanonicalPolicy(sp)
			if err != nil {
				t.Errorf("CanonicalPolicy(%q): %v", sp, err)
				continue
			}
			if got != p.Name {
				t.Errorf("CanonicalPolicy(%q) = %q, want %q", sp, got, p.Name)
			}
			h, err := JobSpec{Bench: "VECTORADD", Policy: sp}.Hash()
			if err != nil {
				t.Errorf("Hash with spelling %q: %v", sp, err)
				continue
			}
			if h != canonHash {
				t.Errorf("spelling %q hashes to %s, canonical %q to %s",
					sp, h, p.Name, canonHash)
			}
		}
	}

	// The rejection message is derived from the same table, so every
	// accepted spelling appears in it — the one place a user discovers
	// the roster must never trail it.
	_, err := CanonicalPolicy("turbo")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	for _, p := range policy.Roster {
		for _, sp := range append([]string{p.Name}, p.Aliases...) {
			if !strings.Contains(err.Error(), sp) {
				t.Errorf("error %q does not mention spelling %q", err, sp)
			}
		}
	}
}

// TestSpecHashGolden pins the content hash of one default design point
// per architecture. These hashes key the on-disk result cache and the
// daemon protocol: a change here invalidates every cached result in the
// fleet, so it must be a deliberate decision, not a side effect of a
// struct or normalization edit.
func TestSpecHashGolden(t *testing.T) {
	golden := []struct{ policy, hash string }{
		{"baseline", "e6de7ac95035231feb6bcb0b087f7d723e55f6be70c9098ac5851e2f2a7332f5"},
		{"bow-wt", "a379551580fc24fa2b0d79587c8efd4d7ae0df556c84d48d0582b114f6985bcc"},
		{"bow-wb", "b21ca4f257fe17d4cacdd5e59a400fd9e29569d95473f4ed5c5290d8f295c092"},
		{"bow-wr", "45e689809c32276fc1a15152169d4852937cce2f26db54dedd30d5b89e1eb02d"},
		{"rfc", "553cb9092231868b243c29dc1ae2ce9e7c7ee515829f238a962b29ddc8562309"},
		{"carfc", "84231dd5a9c6424afa5bb44bc2d569635492ffe2724c278bbb59ea839727a6e4"},
		{"ltrf", "1ee38d79c935fbe615c58c4cac996094e006c685aaa1ec8f9ca82a9c5a64661c"},
		{"scrf", "56affecff6204f8374a9fac659eec84899dafc5de6fe5d17a92b9910ddabb5c0"},
	}
	if len(golden) != len(AllPolicies()) {
		t.Errorf("golden table has %d rows, roster has %d policies — pin the new one",
			len(golden), len(AllPolicies()))
	}
	for _, g := range golden {
		h, err := JobSpec{Bench: "VECTORADD", Policy: g.policy}.Hash()
		if err != nil {
			t.Fatalf("%s: %v", g.policy, err)
		}
		if h != g.hash {
			t.Errorf("%s: hash drifted to %s (cache keys invalidated); was %s",
				g.policy, h, g.hash)
		}
	}
}

// TestNormalizeRejectsRivalKnobs: the window ablations and the reorder
// pass are BOW concepts; the rival architectures must reject them
// instead of silently ignoring them (a knob that hashes into the spec
// but does nothing would split the cache for no reason).
func TestNormalizeRejectsRivalKnobs(t *testing.T) {
	for _, p := range []string{PolicyCARFC, PolicyLTRF, PolicySCRF} {
		bad := []JobSpec{
			{Bench: "VECTORADD", Policy: p, BeyondWindow: true},
			{Bench: "VECTORADD", Policy: p, NoExtend: true},
			{Bench: "VECTORADD", Policy: p, Reorder: true},
		}
		for _, s := range bad {
			if _, err := s.Normalize(); err == nil {
				t.Errorf("Normalize(%+v) accepted a BOW knob on %s", s, p)
			}
		}
	}
	// scrf additionally has no capacity at all.
	if s, err := (JobSpec{Bench: "VECTORADD", Policy: PolicySCRF, IW: 4, Capacity: 9}).Normalize(); err != nil {
		t.Fatal(err)
	} else if s.IW != 0 || s.Capacity != 0 {
		t.Errorf("scrf kept window fields: %+v", s)
	}
}

// TestDefaultPolicyConfigRoundTrip: every canonical policy yields a
// default core config, and SpecFromConfig maps it back to a spec of the
// same policy — the contract the prewarm set and the cross-policy
// experiment rely on to enumerate one design point per architecture.
func TestDefaultPolicyConfigRoundTrip(t *testing.T) {
	for _, p := range AllPolicies() {
		bcfg, err := DefaultPolicyConfig(p)
		if err != nil {
			t.Fatalf("DefaultPolicyConfig(%s): %v", p, err)
		}
		spec, ok := SpecFromConfig("VECTORADD", bcfg, 1, "", 0)
		if !ok {
			t.Fatalf("%s: default config %+v not spec-expressible", p, bcfg)
		}
		if spec.Policy != p {
			t.Errorf("%s: round-tripped to policy %q", p, spec.Policy)
		}
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		back, err := norm.coreConfig()
		if err != nil {
			t.Fatal(err)
		}
		if back != bcfg {
			t.Errorf("%s: config drifted\nin  %+v\nout %+v", p, bcfg, back)
		}
	}
	if _, err := DefaultPolicyConfig("turbo"); err == nil {
		t.Error("DefaultPolicyConfig accepted an unknown policy")
	}
}
