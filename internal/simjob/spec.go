// Package simjob is the concurrent simulation job engine: every
// evaluation artifact in the repo is a design-space sweep over
// (kernel × policy × IW × capacity × SMs), and this package turns one
// such point into a canonical, content-addressed JobSpec, runs
// independent points concurrently on a worker pool with per-job
// timeout/cancellation, panic isolation and bounded retry, and
// deduplicates repeated points through a two-tier (memory LRU +
// on-disk JSON) result cache. cmd/bowd serves the engine over HTTP;
// internal/experiments, cmd/bowbench, cmd/bowsim and the examples
// submit through it.
package simjob

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"bow/internal/config"
	"bow/internal/core"
	"bow/internal/policy"
	"bow/internal/workloads"
)

// Policy names accepted by JobSpec.Policy (canonical forms; see
// CanonicalPolicy for the aliases). Each names one internal/policy
// row.
const (
	PolicyBaseline = policy.Baseline
	PolicyBOWWT    = policy.BOWWT
	PolicyBOWWB    = policy.BOWWB
	PolicyBOWWR    = policy.BOWWR
	PolicyRFC      = policy.RFC
	PolicyCARFC    = policy.CARFC
	PolicyLTRF     = policy.LTRF
	PolicySCRF     = policy.SCRF
)

// AllPolicies returns the canonical policy names in roster order — the
// full architecture roster a cross-policy sweep races.
func AllPolicies() []string {
	out := make([]string, len(policy.Roster))
	for i := range policy.Roster {
		out[i] = policy.Roster[i].Name
	}
	return out
}

// PolicySpellings renders every accepted spelling, canonical forms
// first within each group, as a "a|b|c" usage string. cmd/bowsim's
// -policy flag help and CanonicalPolicy's error share it.
func PolicySpellings() string {
	var parts []string
	for _, a := range policy.Roster {
		parts = append(parts, a.Name)
		parts = append(parts, a.Aliases...)
	}
	return strings.Join(parts, "|")
}

// CanonicalPolicy maps the user-facing policy spellings (shared with
// cmd/bowsim) onto the canonical names the spec hash uses.
func CanonicalPolicy(s string) (string, error) {
	a, err := lookupPolicy(s)
	if err != nil {
		return "", err
	}
	return a.Name, nil
}

// lookupPolicy finds the roster row a spelling names.
func lookupPolicy(s string) (*policy.Arch, error) {
	if a, ok := policy.Lookup(s); ok {
		return a, nil
	}
	return nil, fmt.Errorf("simjob: unknown policy %q (%s)", s, PolicySpellings())
}

// JobSpec is one point of the design space: a kernel under one bypass
// configuration on one chip configuration. Its normalized form has a
// stable content hash, which keys the result cache and deduplicates
// identical points across figures, sweeps, and daemon requests.
type JobSpec struct {
	// Bench names a registered benchmark kernel (workloads.Names).
	Bench string `json:"bench"`
	// Policy names a register-file architecture: baseline | bow-wt |
	// bow-wb | bow-wr | rfc | carfc | ltrf | scrf (aliases as in
	// cmd/bowsim are accepted and canonicalized; internal/policy holds
	// the roster).
	Policy string `json:"policy"`
	// IW is the instruction-window size (the windowed BOW policies
	// only; 0 defaults to the paper's 3).
	IW int `json:"iw,omitempty"`
	// Capacity is the buffer's entry count per warp: the BOC of the BOW
	// policies (0 = conservative 4*IW), or the cache or operand buffer
	// of rfc, carfc and ltrf (0 = the policy's default). Policies that
	// buffer nothing drop it.
	Capacity int `json:"capacity,omitempty"`
	// SMs overrides the simulated SM count (0 = 1).
	SMs int `json:"sms,omitempty"`
	// Scheduler overrides the warp scheduler ("gto" or "lrr";
	// "" = config default).
	Scheduler string `json:"scheduler,omitempty"`
	// MaxCycles bounds the simulation (0 = the gpu package default).
	MaxCycles int64 `json:"maxCycles,omitempty"`

	// BeyondWindow and NoExtend are the paper's ablation knobs
	// (core.Config fields of the same names).
	BeyondWindow bool `json:"beyondWindow,omitempty"`
	NoExtend     bool `json:"noExtend,omitempty"`
	// Reorder applies the footnote-1 compiler scheduling pass before
	// window analysis.
	Reorder bool `json:"reorder,omitempty"`
	// Trace captures per-warp dynamic instruction traces in the full
	// (in-memory) result — used by the reuse-distance study.
	Trace bool `json:"trace,omitempty"`
	// ReferenceLoop runs the SM's reference cycle loop instead of the
	// optimized one (config.GPU.ReferenceLoop). Results are
	// bit-identical; the differential suite and the simulation-rate
	// benchmark use it as the oracle. omitempty keeps cache hashes of
	// ordinary jobs unchanged.
	ReferenceLoop bool `json:"referenceLoop,omitempty"`

	// FromCheckpoint, when non-empty, is a snapshot stream
	// (internal/snap) the simulation resumes from instead of starting at
	// cycle 0 — the vehicle for job migration off a draining worker. It
	// is transport state, not part of the design
	// point: Hash excludes it, because resuming the same spec from a
	// mid-run checkpoint is bit-identical to the cold run (the
	// differential suite pins this), so both deserve the same cache key.
	FromCheckpoint []byte `json:"fromCheckpoint,omitempty"`
}

// Normalize canonicalizes and validates the spec: policy aliases are
// resolved, defaults are made explicit, and fields meaningless under
// the policy are zeroed, so that equivalent specs hash identically.
func (s JobSpec) Normalize() (JobSpec, error) {
	if s.Bench == "" {
		return s, fmt.Errorf("simjob: spec has no bench")
	}
	if _, err := workloads.ByName(s.Bench); err != nil {
		return s, err
	}
	a, err := lookupPolicy(s.Policy)
	if err != nil {
		return s, err
	}
	s.Policy = a.Name
	// Knobs the architecture does not take: the window size is dropped,
	// a BOW ablation or the reorder pass is an error (a knob that hashes
	// into the spec but does nothing would split the cache for no
	// reason).
	if !a.Window {
		s.IW = 0
	} else if s.IW == 0 {
		s.IW = policy.DefaultIW
	}
	if (s.BeyondWindow || s.NoExtend) && !a.Ablations {
		return s, fmt.Errorf("simjob: BeyondWindow/NoExtend do not apply to %s", a.Name)
	}
	if s.Reorder && !a.Reorder {
		return s, fmt.Errorf("simjob: Reorder does not apply to %s", a.Name)
	}
	if s.SMs == 0 {
		s.SMs = 1
	}
	if s.SMs < 0 {
		return s, fmt.Errorf("simjob: SMs %d invalid", s.SMs)
	}
	if s.Scheduler == "" {
		s.Scheduler = config.SimDefault().Scheduler
	}
	if s.Scheduler != "gto" && s.Scheduler != "lrr" {
		return s, fmt.Errorf("simjob: unknown scheduler %q", s.Scheduler)
	}
	if s.MaxCycles < 0 {
		return s, fmt.Errorf("simjob: MaxCycles %d invalid", s.MaxCycles)
	}
	// Validate the derived core config eagerly so bad points fail at
	// submission, not inside a worker. It also supplies the default
	// capacity, and drops the capacity of a policy that buffers nothing.
	cfg, err := a.Config(s.IW, s.Capacity, s.BeyondWindow, s.NoExtend)
	if err != nil {
		return s, err
	}
	if s.Capacity == 0 || !a.Core.Bypassing() {
		s.Capacity = cfg.Capacity
	}
	return s, nil
}

// Hash is the stable content hash of the normalized spec: sha256 over
// its canonical JSON encoding (struct field order is fixed, so the
// encoding is deterministic). It keys both cache tiers. FromCheckpoint
// is excluded: a resumed job is the same design point as a cold one.
func (s JobSpec) Hash() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	n.FromCheckpoint = nil
	raw, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// coreConfig translates the normalized spec into the window engine's
// configuration.
func (s JobSpec) coreConfig() (core.Config, error) {
	a, err := lookupPolicy(s.Policy)
	if err != nil {
		return core.Config{}, err
	}
	return a.Config(s.IW, s.Capacity, s.BeyondWindow, s.NoExtend)
}

// DefaultPolicyConfig returns the canonical window configuration a
// bare spec of the given policy (any accepted spelling) normalizes to:
// the paper's IW=3 window for the BOW variants, each comparator's
// default capacity otherwise. The prewarm set and the cross-policy
// experiment derive one design point per architecture through it.
func DefaultPolicyConfig(name string) (core.Config, error) {
	a, err := lookupPolicy(name)
	if err != nil {
		return core.Config{}, err
	}
	return a.DefaultConfig()
}

// gpuConfig builds the chip configuration: SimDefault with the spec's
// SM count and scheduler.
func (s JobSpec) gpuConfig() config.GPU {
	g := config.SimDefault()
	g.NumSMs = s.SMs
	if s.Scheduler != "" {
		g.Scheduler = s.Scheduler
	}
	g.ReferenceLoop = s.ReferenceLoop
	return g
}

// SpecFromConfig maps a (benchmark, core.Config) pair — the interface
// internal/experiments speaks — onto a JobSpec. The second return is
// false when the core config is not representable as a spec (e.g. a
// hand-built carfc without ForwardThroughPort), in which case callers
// fall back to a direct simulation.
func SpecFromConfig(bench string, bcfg core.Config, sms int, scheduler string, maxCycles int64) (JobSpec, bool) {
	a, ok := policy.Of(bcfg)
	if !ok || !a.Expresses(bcfg) {
		return JobSpec{}, false
	}
	s := JobSpec{
		Bench: bench, Policy: a.Name, SMs: sms, Scheduler: scheduler, MaxCycles: maxCycles,
	}
	if a.Window {
		s.IW = bcfg.IW
	}
	if a.Core.Bypassing() {
		s.Capacity = bcfg.Capacity
	}
	if a.Ablations {
		s.BeyondWindow, s.NoExtend = bcfg.BeyondWindow, bcfg.NoExtend
	}
	return s, true
}
