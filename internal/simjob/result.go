package simjob

import (
	"encoding/json"

	"bow/internal/energy"
	"bow/internal/gpu"
)

// JobResult is the serializable summary of one simulation job — the
// one schema shared by cmd/bowsim -json, the result cache's disk tier,
// and cmd/bowd's responses. All fields except WallNanos are a pure
// function of the normalized spec (the simulator is deterministic),
// which is the invariant the content-addressed cache relies on.
type JobResult struct {
	SpecHash  string `json:"specHash"`
	Bench     string `json:"bench"`
	Policy    string `json:"policy"`
	IW        int    `json:"iw,omitempty"`
	Capacity  int    `json:"capacity,omitempty"`
	SMs       int    `json:"sms"`
	Scheduler string `json:"scheduler"`

	Cycles   int64   `json:"cycles"`
	Executed int64   `json:"executed"`
	IPC      float64 `json:"ipc"`

	RFReads         int64   `json:"rfReads"`
	RFWrites        int64   `json:"rfWrites"`
	BypassedReads   int64   `json:"bypassedReads"`
	ReadBypassFrac  float64 `json:"readBypassFrac"`
	WriteBypassFrac float64 `json:"writeBypassFrac"`
	BOCReads        int64   `json:"bocReads"`
	BOCWrites       int64   `json:"bocWrites"`
	BankConflicts   int64   `json:"bankConflicts"`
	MemTransactions int64   `json:"memTransactions"`

	RFEnergyPJ       float64 `json:"rfEnergyPJ"`
	OverheadEnergyPJ float64 `json:"overheadEnergyPJ"`

	// Checked reports that the benchmark's functional self-check ran
	// and passed (false = the benchmark has no check; a failing check
	// is a job error, not a result).
	Checked bool `json:"checked"`

	// ReusedCycles is always 0, so it is omitted from the JSON.
	//
	// Deprecated: warm-up forking was removed (its baseline prefix
	// moved the paper's figures); the field stays so the result shape
	// does not change for callers that still read it.
	ReusedCycles int64 `json:"reusedCycles,omitempty"`

	// WallNanos is the host wall-clock time of the simulation. It is
	// the one volatile field: CanonicalJSON zeroes it, so cached and
	// fresh encodings of the same spec are byte-identical.
	WallNanos int64 `json:"wallNanos,omitempty"`
}

// summarize builds the JobResult for a finished run.
func summarize(spec JobSpec, hash string, res *gpu.Result, checked bool, wallNanos int64) JobResult {
	rep := energy.Compute(res.Energy)
	return JobResult{
		SpecHash:  hash,
		Bench:     spec.Bench,
		Policy:    spec.Policy,
		IW:        spec.IW,
		Capacity:  spec.Capacity,
		SMs:       spec.SMs,
		Scheduler: spec.Scheduler,

		Cycles:   res.Cycles,
		Executed: res.Stats.Executed,
		IPC:      res.Stats.IPC(),

		RFReads:         res.Engine.RFReads,
		RFWrites:        res.Engine.RFWrites,
		BypassedReads:   res.Engine.BypassedRead,
		ReadBypassFrac:  res.Engine.ReadBypassFrac(),
		WriteBypassFrac: res.Engine.WriteBypassFrac(),
		BOCReads:        res.Engine.BOCReads,
		BOCWrites:       res.Engine.BOCWrites,
		BankConflicts:   res.RF.BankConflicts,
		MemTransactions: res.Stats.MemTransactions,

		RFEnergyPJ:       rep.RFDynamicPJ,
		OverheadEnergyPJ: rep.OverheadPJ(),

		Checked:   checked,
		WallNanos: wallNanos,
	}
}

// CanonicalJSON is the deterministic encoding of the result: the
// volatile wall-clock field is zeroed, everything else is a pure
// function of the spec. The disk cache stores exactly these bytes, and
// the determinism tests assert byte-identity across cold, cached,
// sequential, and in-pool runs.
func (r JobResult) CanonicalJSON() ([]byte, error) {
	r.WallNanos = 0
	return json.Marshal(r)
}

// Outcome is the full in-memory product of one job: the serializable
// summary plus the complete simulator result (histograms, traces,
// snapshots) that the figure generators need. Disk-tier cache hits
// carry only the summary (Full == nil).
type Outcome struct {
	Spec    JobSpec
	Hash    string
	Summary JobResult
	Full    *gpu.Result
	// Cached records how the outcome was obtained: "" (simulated),
	// "memory", or "disk".
	Cached string
	// Hints is the compiler hint summary when the bow-wr pass ran
	// (informational; cmd/bowsim prints it).
	Hints string
	// Attempts counts execution attempts (retries + 1) for freshly
	// simulated outcomes.
	Attempts int

	// Interrupted reports the run was paused before completion — by a
	// drain (WithDrain) or an explicit pause point (ExecuteUntil).
	// Checkpoint then holds the snapshot stream to resume from
	// (JobSpec.FromCheckpoint) and CheckpointCycle the cycle it was
	// taken at; Summary and Full are empty. Interrupted outcomes are
	// never cached.
	Interrupted     bool
	Checkpoint      []byte
	CheckpointCycle int64
	// ResumedFrom is the checkpoint cycle this run was restored from
	// (zero for cold runs). Informational: it does not enter the cached
	// summary, because an exact same-spec resume produces the identical
	// result a cold run would.
	ResumedFrom int64
}
