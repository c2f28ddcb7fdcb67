package gpu

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"bow/internal/snap"
)

// Snapshot section ids. New sections must be appended (higher ids) so
// old readers can skip them by their length frame.
const (
	secDevice = 1 // dispatch cursor, SM count
	secMemory = 2 // global memory pages
	secL2     = 3 // shared L2 tag/LRU state
	secSMBase = 16
)

// ConfigHash fingerprints the chip configuration. It deliberately
// excludes the BOW window configuration (core.Config): window state is
// checked structurally on restore, so a snapshot whose operand windows
// are empty (any baseline snapshot) restores into every window
// configuration of the same chip. The hash is part of the snapshot
// header, so changing what it covers would move every pinned stream.
func (d *Device) ConfigHash() string {
	b, err := json.Marshal(d.cfg)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// KernelHash fingerprints the program and launch geometry (hint-
// agnostic; see sm.Kernel.StateHash).
func (d *Device) KernelHash() string { return d.kernel.StateHash() }

// Snapshot serializes the complete device state — global memory, L2,
// and every SM's pipeline — to w as a versioned snapshot stream. It
// must be called at a cycle boundary: after New, after a paused
// RunUntil, or after ErrInterrupted. specJSON (may be nil) is embedded
// in the header so the snapshot is self-describing. Returns the content
// hash of the written stream.
func (d *Device) Snapshot(w io.Writer, specJSON []byte) (string, error) {
	blob, sum, err := d.SnapshotBytes(specJSON)
	if err != nil {
		return "", err
	}
	if _, err := w.Write(blob); err != nil {
		return "", fmt.Errorf("gpu: snapshot: write: %w", err)
	}
	return sum, nil
}

// SnapshotBytes is Snapshot into memory: it returns the same stream as
// one exactly sized blob (snap.EncodeBlob), with its content hash.
// Checkpoints that stay in memory, such as paused and drained jobs,
// use it so the blob is never copied through a writer.
func (d *Device) SnapshotBytes(specJSON []byte) ([]byte, string, error) {
	h := snap.Header{
		Cycle:      d.cycles,
		ConfigHash: d.ConfigHash(),
		KernelHash: d.KernelHash(),
		SpecJSON:   specJSON,
	}
	blob, sum, err := snap.EncodeBlob(h, func(e *snap.Encoder) { d.State(snap.Save(e)) })
	if err != nil {
		return nil, "", fmt.Errorf("gpu: snapshot: %w", err)
	}
	return blob, sum, nil
}

// State walks the device state: the payload sections a snapshot
// stream frames behind its header. A load needs a device built with
// the same SM count.
func (d *Device) State(st *snap.State) {
	st.Section(secDevice)
	nsms := len(d.sms)
	st.Int(&d.nextCTA)
	st.Int(&nsms)
	if nsms != len(d.sms) {
		st.Fail(fmt.Errorf("gpu: snapshot has %d SMs, device has %d", nsms, len(d.sms)))
		return
	}
	st.Section(secMemory)
	d.Global.State(st)
	st.Section(secL2)
	d.l2.State(st)
	for i, s := range d.sms {
		st.Section(secSMBase + uint32(i))
		if !st.Loading() {
			// The histogram is serialized; the open occupancy runs are not.
			s.FlushOccupancy()
		}
		s.State(st)
	}
}

// Restore loads a snapshot stream into a freshly constructed device.
// The target must have been built with the same chip configuration and
// kernel (enforced via the header hashes); the window configuration may
// differ when the snapshot's windows are empty (core.Engine.State
// enforces that). Returns the decoded header.
func (d *Device) Restore(r io.Reader) (snap.Header, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return snap.Header{}, fmt.Errorf("gpu: restore: %w", err)
	}
	return d.RestoreBytes(blob)
}

// RestoreBytes is Restore over an in-memory snapshot, decoding the
// blob in place (snap.DecodeBytes, which checks the content hash)
// instead of buffering a copy. The blob must not be mutated during the
// call; every checkpoint resume and migrated job restores through it.
func (d *Device) RestoreBytes(blob []byte) (snap.Header, error) {
	h, dec, err := snap.DecodeBytes(blob)
	if err != nil {
		return h, err
	}
	if got := d.ConfigHash(); h.ConfigHash != got {
		return h, fmt.Errorf("gpu: snapshot chip config %.12s does not match device %.12s", h.ConfigHash, got)
	}
	if got := d.KernelHash(); h.KernelHash != got {
		return h, fmt.Errorf("gpu: snapshot kernel %.12s does not match device %.12s", h.KernelHash, got)
	}
	d.cycles = h.Cycle
	d.State(snap.Load(dec))
	return h, dec.Close()
}
