// Package policy is the roster of register-file architectures the
// simulator races: baseline, the paper's three BOW write-back variants
// and four comparators. Each architecture is one row of Roster, and
// everything the rest of the system knows about it derives from that
// row — the spellings a spec accepts, the knobs it keeps, its default
// buffer size, the window-engine config it runs, the compiler pass its
// kernels need, and the storage it adds to an SM.
//
// A rival design brings exactly three things: a compiler hint contract
// (Pass, Param), an engine behaviour (Core, ForwardThroughPort) and a
// storage rule (CollectorEntries). Adding a ninth architecture is one
// row here, plus a core traits entry only if it needs engine behaviour
// no existing core.Policy has.
package policy

import "bow/internal/core"

// Canonical architecture names, in roster order.
const (
	Baseline = "baseline"
	BOWWT    = "bow-wt"
	BOWWB    = "bow-wb"
	BOWWR    = "bow-wr"
	RFC      = "rfc"
	CARFC    = "carfc"
	LTRF     = "ltrf"
	SCRF     = "scrf"
)

// Compiler annotation passes (artifact.KernelKey.Hints): which
// per-instruction hints a kernel is prepared with.
const (
	PassNone  = ""       // the plain parsed program
	PassBOWWR = "bow-wr" // compiler.Annotate write-back hints
	PassCARFC = "carfc"  // compiler.AnnotateCARFC allocation + last-use hints
	PassLTRF  = "ltrf"   // compiler.AnnotateLTRF prefetch intervals
	PassSCRF  = "scrf"   // compiler.AnnotateSCRF narrowness hints
)

// Param names the config field a compiler pass takes as its integer
// parameter.
type Param uint8

// Pass parameters.
const (
	ParamNone     Param = iota // the pass is parameterless
	ParamIW                    // the instruction-window size
	ParamCapacity              // the buffer's entry count
)

// DefaultIW is the paper's instruction window, what a windowed spec
// without one runs.
const DefaultIW = 3

// entryBytes is one buffered warp register: 32 lanes × 4 bytes.
const entryBytes = 128

// noWindow is an instruction-window size far beyond any kernel length:
// a windowless buffer's entries leave only by capacity eviction (or the
// policy's own drain rule), never by instruction distance.
const noWindow = 1 << 30

// Arch is one register-file architecture.
type Arch struct {
	Name    string
	Aliases []string

	// Core is the window-engine behaviour the architecture runs.
	// ForwardThroughPort serializes buffer hits through the collector's
	// single port, as a register-file cache does (core.Config's field of
	// the same name).
	Core               core.Policy
	ForwardThroughPort bool

	// Knobs the architecture accepts. Window: the IW knob (a nominal
	// instruction window). Ablations: BeyondWindow and NoExtend.
	// Reorder: the footnote-1 scheduling pass. A knob it does not take
	// is rejected, or for IW and Capacity dropped.
	Window, Ablations, Reorder bool

	// Capacity is a windowless buffer's default entries per warp. A
	// windowed BOC defaults to core's 4*IW instead, and an architecture
	// that buffers nothing (core.Policy.Bypassing false) has none.
	Capacity int

	// Pass is the compiler annotation pass the architecture's kernels
	// need, and Param the config field that is its parameter.
	Pass  string
	Param Param

	// CollectorEntries is how many of the baseline's three operand
	// collector entries per warp the buffer absorbs: the design adds
	// (Capacity − CollectorEntries) × 128 B per warp.
	CollectorEntries int
}

// Roster holds one row per architecture, baseline first. Its order is
// the order sweeps, races and usage text enumerate policies in.
var Roster = []Arch{
	{Name: Baseline, Core: core.PolicyBaseline, Reorder: true},
	{
		Name: BOWWT, Aliases: []string{"bow", "write-through"}, Core: core.PolicyWriteThrough,
		Window: true, Ablations: true, Reorder: true, CollectorEntries: 3,
	},
	{
		Name: BOWWB, Aliases: []string{"write-back"}, Core: core.PolicyWriteBack,
		Window: true, Ablations: true, Reorder: true, CollectorEntries: 3,
	},
	{
		Name: BOWWR, Aliases: []string{"hints", "compiler"}, Core: core.PolicyCompilerHints,
		Window: true, Ablations: true, Reorder: true, CollectorEntries: 3,
		Pass: PassBOWWR, Param: ParamIW,
	},
	// Register file cache (Gebhart et al., ISCA 2011): every result is
	// cached, dirty victims write back, hits still pass the port.
	{
		Name: RFC, Core: core.PolicyWriteBack, ForwardThroughPort: true,
		Reorder: true, Capacity: 6,
	},
	// Compiler-assisted RF cache (arXiv 2310.17501): the RFC's sizing,
	// steered by allocation and last-use hints.
	{
		Name: CARFC, Core: core.PolicyCARFC, ForwardThroughPort: true,
		Capacity: 6, Pass: PassCARFC,
	},
	// Latency-tolerant RF (arXiv 2010.09330): prefetch intervals sized
	// to the buffer, so the capacity is also the pass's parameter.
	{Name: LTRF, Core: core.PolicyLTRF, Capacity: 8, Pass: PassLTRF, Param: ParamCapacity},
	// Statically-compressed RF (arXiv 2006.05693): baseline timing,
	// cheaper accesses to narrow registers, no added storage.
	{Name: SCRF, Core: core.PolicySCRF, Pass: PassSCRF},
}

// Lookup finds the row a spelling (canonical name or alias) names.
func Lookup(spelling string) (*Arch, bool) {
	for i := range Roster {
		a := &Roster[i]
		if a.Name == spelling {
			return a, true
		}
		for _, s := range a.Aliases {
			if s == spelling {
				return a, true
			}
		}
	}
	return nil, false
}

// Of returns the row that runs cfg's engine behaviour: the row with
// cfg's core.Policy, preferring the one whose ForwardThroughPort
// matches. Every valid core.Policy backs at least one row, so only an
// out-of-range policy reports false.
func Of(cfg core.Config) (*Arch, bool) {
	var found *Arch
	for i := range Roster {
		a := &Roster[i]
		if a.Core != cfg.Policy {
			continue
		}
		if a.ForwardThroughPort == cfg.ForwardThroughPort {
			return a, true
		}
		if found == nil {
			found = a
		}
	}
	return found, found != nil
}

// Config returns the normalized window-engine config the architecture
// runs with the given knobs; knobs it does not take are ignored, and a
// non-positive capacity of a windowless buffer takes the default.
func (a *Arch) Config(iw, capacity int, beyondWindow, noExtend bool) (core.Config, error) {
	cfg := core.Config{Policy: a.Core, ForwardThroughPort: a.ForwardThroughPort}
	switch {
	case a.Window:
		cfg.IW, cfg.Capacity = iw, capacity
		if a.Ablations {
			cfg.BeyondWindow, cfg.NoExtend = beyondWindow, noExtend
		}
	case a.Core.Bypassing():
		cfg.IW, cfg.Capacity = noWindow, capacity
		if capacity <= 0 {
			cfg.Capacity = a.Capacity
		}
	}
	return cfg.Normalize()
}

// DefaultConfig is the architecture's canonical design point: the
// paper's IW=3 window, or the default buffer size.
func (a *Arch) DefaultConfig() (core.Config, error) {
	return a.Config(DefaultIW, 0, false, false)
}

// Expresses reports whether a spec of this row reproduces cfg: whether
// cfg is this row's engine behaviour, and the fields a spec carries
// (IW, Capacity, the ablations — as the row takes them) rebuild it
// exactly. A windowed row's spec carries every field; the baseline,
// with neither a buffer nor a compiler pass, consumes none, so it
// takes any config of its policy.
func (a *Arch) Expresses(cfg core.Config) bool {
	if a.Core != cfg.Policy || a.ForwardThroughPort != cfg.ForwardThroughPort {
		return false
	}
	if a.Window || !a.Core.Bypassing() && a.Pass == PassNone {
		return true
	}
	ref, err := a.Config(0, cfg.Capacity, false, false)
	return err == nil && ref == cfg
}

// PassParam is the integer parameter the row's compiler pass runs with
// under cfg (0 for a parameterless pass).
func (a *Arch) PassParam(cfg core.Config) int {
	switch a.Param {
	case ParamIW:
		return cfg.IW
	case ParamCapacity:
		return cfg.Capacity
	}
	return 0
}

// Parametric reports whether the named compiler pass consumes an
// integer parameter.
func Parametric(pass string) bool {
	for i := range Roster {
		if Roster[i].Pass == pass && Roster[i].Param != ParamNone {
			return true
		}
	}
	return false
}

// StorageBytes is the on-chip storage the architecture adds per SM at
// cfg with the given number of warps, relative to the baseline's
// operand collectors.
func (a *Arch) StorageBytes(cfg core.Config, warps int) int {
	return (cfg.Capacity - a.CollectorEntries) * entryBytes * warps
}
