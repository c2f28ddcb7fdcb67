// Package snap implements the versioned binary snapshot format for
// complete simulator state (DESIGN.md §10). A snapshot is a
// self-describing header (format version, config hash, kernel hash,
// cycle, and the normalized job spec that produced the run) followed by
// a length-framed payload of sections and a SHA-256 content hash over
// everything that precedes it.
//
// The package is a leaf: it knows nothing about the simulator. Stateful
// packages (mem, core, regfile, scoreboard, scheduler, stats, sm, gpu)
// import it and walk themselves through a State, one method per type
// for both directions, over the Encoder/Decoder primitives.
// Serialization is strictly deterministic — every walk over a map is
// sorted, every list is written in its semantic order — so the same
// simulator state always produces byte-identical snapshots and the
// content hash doubles as an identity for simjob's content-addressed
// cache.
//
// All integers are little-endian and fixed-width. Sections are framed
// as (id uint32, length uint64, body), so a reader that does not know a
// section id can skip it — the forward-compatibility rule is: same
// format version, unknown trailing sections are skippable; a different
// format version is always a hard error.
package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Magic identifies a BOW snapshot stream.
const Magic = "BOWSNAP1"

// FormatVersion is the current snapshot format version. Restore
// refuses any other version: state layout is tied to simulator
// internals, and silently reinterpreting an old layout would break the
// bit-identity guarantee the format exists to provide.
//
// Version history:
//
//	1 — initial format
//	2 — window engines carry a prefetch-interval counter and the
//	    extended stats block (carfc/ltrf/scrf policy counters)
const FormatVersion uint32 = 2

// maxSnapshotBytes bounds how much a decoder will buffer: a defensive
// cap against corrupt length fields, far above any real snapshot (the
// bundled workloads checkpoint in the low megabytes).
const maxSnapshotBytes = 1 << 30

// Header is the self-describing snapshot preamble.
//
//bow:state
type Header struct {
	// Version is the snapshot format version (FormatVersion).
	//bow:snapskip -- EncodeBlob stamps the FormatVersion constant, never a Header value; Decode fills this for the caller
	Version uint32
	// Cycle is the device cycle the state was captured at.
	Cycle int64
	// ConfigHash fingerprints the chip configuration (config.GPU): a
	// snapshot only restores onto an identically configured device.
	ConfigHash string
	// KernelHash fingerprints the program and launch geometry,
	// excluding BOW-WR writeback hints, so a baseline snapshot of a
	// kernel also restores into its bow-wt/bow-wr configurations.
	KernelHash string
	// SpecJSON is the normalized simjob.JobSpec JSON of the run that
	// produced the snapshot (empty for direct gpu-layer snapshots). It
	// makes a snapshot file self-describing: cmd/bowtrace -resume
	// rebuilds the whole run from this field alone.
	SpecJSON []byte
}

// Encoder accumulates a snapshot payload in memory. Methods are sticky
// on error (there is no error source today besides Fail, but section
// patching keeps the same discipline as Decoder for symmetry).
type Encoder struct {
	buf      []byte
	secStart int // offset of the open section's length field; -1 when none
	err      error
}

// NewEncoder creates an empty payload encoder.
func NewEncoder() *Encoder {
	return &Encoder{buf: make([]byte, 0, 1<<16), secStart: -1}
}

// Fail records an encoding error; all subsequent writes are ignored.
func (e *Encoder) Fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// Err returns the first recorded error.
func (e *Encoder) Err() error { return e.err }

// Section closes the open section (if any) and starts a new one with
// the given id. Section bodies are length-framed so unknown ids can be
// skipped by future readers.
func (e *Encoder) Section(id uint32) {
	if e.err != nil {
		return
	}
	e.closeSection()
	e.U32(id)
	e.secStart = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0)
}

func (e *Encoder) closeSection() {
	if e.secStart < 0 {
		return
	}
	body := uint64(len(e.buf) - e.secStart - 8)
	binary.LittleEndian.PutUint64(e.buf[e.secStart:], body)
	e.secStart = -1
}

// Bytes finalizes the payload (closing any open section) and returns
// the encoded bytes.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.closeSection()
	return e.buf, nil
}

// U8 writes one byte.
//
//bow:hotpath
func (e *Encoder) U8(v uint8) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, v)
}

// Bool writes a boolean as one byte.
//
//bow:hotpath
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 writes a little-endian uint32.
//
//bow:hotpath
func (e *Encoder) U32(v uint32) {
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 writes a little-endian uint64.
//
//bow:hotpath
func (e *Encoder) U64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.buf = append(e.buf, b[:]...)
}

// I64 writes an int64 (two's complement).
//
//bow:hotpath
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int writes an int as an int64.
//
//bow:hotpath
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// I32 writes an int32 (two's complement).
//
//bow:hotpath
func (e *Encoder) I32(v int32) { e.U32(uint32(v)) }

// String writes a length-prefixed string.
func (e *Encoder) String(s string) {
	e.U32(uint32(len(s)))
	if e.err != nil {
		return
	}
	e.buf = append(e.buf, s...)
}

// U32s writes a length-prefixed []uint32 as raw little-endian words.
//
//bow:hotpath
func (e *Encoder) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	if e.err != nil {
		return
	}
	off := len(e.buf)
	//bowvet:ignore hotpathalloc -- amortized: bulk extension of the payload buffer, doubling growth
	e.buf = append(e.buf, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(e.buf[off+4*i:], v)
	}
}

// Words writes a fixed-size word block with no length prefix (the
// reader knows the size from context, e.g. a memory page).
//
//bow:hotpath
func (e *Encoder) Words(vs []uint32) {
	if e.err != nil {
		return
	}
	off := len(e.buf)
	//bowvet:ignore hotpathalloc -- amortized: bulk extension of the payload buffer, doubling growth
	e.buf = append(e.buf, make([]byte, 4*len(vs))...)
	for i, v := range vs {
		binary.LittleEndian.PutUint32(e.buf[off+4*i:], v)
	}
}

// Decoder reads a snapshot payload. All reads are sticky on error: the
// zero value is returned after the first failure, and Err reports it.
type Decoder struct {
	buf    []byte
	off    int
	secEnd int // end offset of the open section; -1 when none
	err    error
}

// NewDecoder wraps a payload produced by Encoder.Bytes.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf, secEnd: -1}
}

// Fail records a decoding error; all subsequent reads return zero.
func (d *Decoder) Fail(err error) {
	if d.err == nil && err != nil {
		d.err = err
	}
}

// Err returns the first recorded error.
func (d *Decoder) Err() error { return d.err }

func (d *Decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.Fail(fmt.Errorf("snap: truncated payload at offset %d (need %d of %d bytes)", d.off, n, len(d.buf)))
		return false
	}
	return true
}

// Section consumes the next section marker and checks it has the
// expected id. The previous section, if still open, must have been
// fully consumed — a length mismatch means writer and reader disagree
// about the layout, which is a corruption-grade error.
func (d *Decoder) Section(id uint32) {
	if d.err != nil {
		return
	}
	if d.secEnd >= 0 && d.off != d.secEnd {
		d.Fail(fmt.Errorf("snap: section ended at offset %d, expected %d", d.off, d.secEnd))
		return
	}
	d.secEnd = -1
	got := d.U32()
	if d.err != nil {
		return
	}
	if got != id {
		d.Fail(fmt.Errorf("snap: expected section %d, found %d", id, got))
		return
	}
	n := d.U64()
	if d.err != nil {
		return
	}
	if n > uint64(len(d.buf)-d.off) {
		d.Fail(fmt.Errorf("snap: section %d length %d exceeds payload", id, n))
		return
	}
	d.secEnd = d.off + int(n)
}

// Close verifies the payload was fully consumed.
func (d *Decoder) Close() error {
	if d.err != nil {
		return d.err
	}
	if d.secEnd >= 0 && d.off != d.secEnd {
		return fmt.Errorf("snap: section ended at offset %d, expected %d", d.off, d.secEnd)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("snap: %d trailing payload bytes", len(d.buf)-d.off)
	}
	return nil
}

// U8 reads one byte.
//
//bow:hotpath
func (d *Decoder) U8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

// Bool reads a boolean.
//
//bow:hotpath
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a little-endian uint32.
//
//bow:hotpath
func (d *Decoder) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
//
//bow:hotpath
func (d *Decoder) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// I64 reads an int64.
//
//bow:hotpath
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads an int written by Encoder.Int.
//
//bow:hotpath
func (d *Decoder) Int() int { return int(d.I64()) }

// I32 reads an int32.
//
//bow:hotpath
func (d *Decoder) I32() int32 { return int32(d.U32()) }

// Count reads the uint32 record count that prefixes a list whose
// records each encode to at least minSize bytes, and fails when that
// many records could not fit in the rest of the open section (or of
// the payload). Decoders size allocations and loops from the result,
// so a crafted count can never make a restore allocate more than the
// input could back.
func (d *Decoder) Count(minSize int) int {
	n := d.U32()
	if d.err != nil {
		return 0
	}
	end := len(d.buf)
	if d.secEnd >= 0 {
		end = d.secEnd
	}
	if left := end - d.off; uint64(n)*uint64(max(minSize, 1)) > uint64(max(left, 0)) {
		d.Fail(fmt.Errorf("snap: count %d of %d-byte records exceeds the %d bytes left at offset %d", n, minSize, left, d.off))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := int(d.U32())
	if d.err != nil || !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// U32s reads a length-prefixed []uint32.
func (d *Decoder) U32s() []uint32 {
	n := int(d.U32())
	if d.err != nil || !d.need(4*n) {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(d.buf[d.off+4*i:])
	}
	d.off += 4 * n
	return out
}

// WordsInto fills dst with an unprefixed word block written by
// Encoder.Words.
//
//bow:hotpath
func (d *Decoder) WordsInto(dst []uint32) {
	if !d.need(4 * len(dst)) {
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(d.buf[d.off+4*i:])
	}
	d.off += 4 * len(dst)
}

// State is one walk over a component's state. Save makes it write each
// visited field through an Encoder; Load makes it overwrite each
// visited field from a Decoder. A component lists its fields once, in
// one State method, so its writer and reader cannot disagree about
// order. Every method takes a pointer to the field it walks. A field
// whose stored type differs from its encoding round-trips through a
// local of the encoded type, so the bytes do not move. Errors are
// sticky, as on the Encoder and Decoder underneath.
//
// State is a concrete type, not an interface: a local passed by
// pointer to an interface method escapes to the heap.
type State struct {
	enc *Encoder
	dec *Decoder
}

// Save returns a State that writes through e.
func Save(e *Encoder) *State { return &State{enc: e} }

// Load returns a State that reads through d.
func Load(d *Decoder) *State { return &State{dec: d} }

// Loading reports whether the walk reads (restore) rather than writes.
func (s *State) Loading() bool { return s.dec != nil }

// Fail records an error; all later walks are no-ops.
func (s *State) Fail(err error) {
	if s.dec != nil {
		s.dec.Fail(err)
	} else {
		s.enc.Fail(err)
	}
}

// Err returns the first recorded error.
func (s *State) Err() error {
	if s.dec != nil {
		return s.dec.Err()
	}
	return s.enc.Err()
}

// Section opens the section with the given id (Encoder.Section,
// Decoder.Section).
func (s *State) Section(id uint32) {
	if s.dec != nil {
		s.dec.Section(id)
	} else {
		s.enc.Section(id)
	}
}

// U8 walks one byte.
//
//bow:hotpath
func (s *State) U8(v *uint8) {
	if s.dec != nil {
		*v = s.dec.U8()
	} else {
		s.enc.U8(*v)
	}
}

// Bool walks a boolean as one byte.
//
//bow:hotpath
func (s *State) Bool(v *bool) {
	if s.dec != nil {
		*v = s.dec.Bool()
	} else {
		s.enc.Bool(*v)
	}
}

// U32 walks a little-endian uint32.
//
//bow:hotpath
func (s *State) U32(v *uint32) {
	if s.dec != nil {
		*v = s.dec.U32()
	} else {
		s.enc.U32(*v)
	}
}

// U64 walks a little-endian uint64.
//
//bow:hotpath
func (s *State) U64(v *uint64) {
	if s.dec != nil {
		*v = s.dec.U64()
	} else {
		s.enc.U64(*v)
	}
}

// I32 walks an int32.
//
//bow:hotpath
func (s *State) I32(v *int32) {
	if s.dec != nil {
		*v = s.dec.I32()
	} else {
		s.enc.I32(*v)
	}
}

// I64 walks an int64.
//
//bow:hotpath
func (s *State) I64(v *int64) {
	if s.dec != nil {
		*v = s.dec.I64()
	} else {
		s.enc.I64(*v)
	}
}

// Int walks an int as an int64.
//
//bow:hotpath
func (s *State) Int(v *int) {
	if s.dec != nil {
		*v = s.dec.Int()
	} else {
		s.enc.Int(*v)
	}
}

// Words walks a fixed-size word block with no length prefix.
//
//bow:hotpath
func (s *State) Words(vs []uint32) {
	if s.dec != nil {
		s.dec.WordsInto(vs)
	} else {
		s.enc.Words(vs)
	}
}

// U32s walks a length-prefixed []uint32; a load replaces the slice.
func (s *State) U32s(vs *[]uint32) {
	if s.dec != nil {
		*vs = s.dec.U32s()
	} else {
		s.enc.U32s(*vs)
	}
}

// Count walks the uint32 record count that prefixes a list whose
// records each encode to at least minSize bytes. A load sets *n and
// applies Decoder.Count's bound: a count the rest of the section could
// not hold fails the walk and loads as 0.
//
//bow:hotpath
func (s *State) Count(n *int, minSize int) {
	if s.dec != nil {
		*n = s.dec.Count(minSize)
	} else {
		s.enc.U32(uint32(*n))
	}
}

// encoderPool recycles payload scratch buffers across snapshots. A
// device snapshot is a few hundred KB; growing a fresh buffer by
// doubling for every checkpoint would allocate several times the blob
// it produces.
var encoderPool = sync.Pool{New: func() any { return NewEncoder() }}

// EncodeBlob encodes a complete snapshot stream — magic, header, the
// payload fill writes, and the SHA-256 content hash over all preceding
// bytes — and returns it as one blob of exactly its final length, with
// the hex content hash. Every header field is known up front, so header
// and payload are written into one pooled scratch buffer and hashed in
// place; once that buffer is warm, the returned blob is the only
// allocation that grows with the snapshot. The hash is stable across
// identical states and keys snapshots in content-addressed stores.
func EncodeBlob(h Header, fill func(*Encoder)) ([]byte, string, error) {
	e := encoderPool.Get().(*Encoder)
	defer encoderPool.Put(e)
	e.buf, e.secStart, e.err = appendHeader(e.buf[:0], h), -1, nil
	lenAt := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, 0, 0, 0, 0) // payload length, patched below
	fill(e)
	if e.err != nil {
		return nil, "", e.err
	}
	e.closeSection()
	binary.LittleEndian.PutUint64(e.buf[lenAt:], uint64(len(e.buf)-lenAt-8))
	sum := sha256.Sum256(e.buf)
	blob := make([]byte, len(e.buf)+len(sum))
	copy(blob[copy(blob, e.buf):], sum[:])
	return blob, hex.EncodeToString(sum[:]), nil
}

// appendHeader appends the stream prefix: magic, format version, cycle,
// the two fingerprints and the spec JSON, each length-prefixed.
func appendHeader(b []byte, h Header) []byte {
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint32(b, FormatVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Cycle))
	for _, s := range [...]string{h.ConfigHash, h.KernelHash} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(h.SpecJSON)))
	return append(b, h.SpecJSON...)
}

// Encode writes the snapshot stream EncodeBlob builds around an
// already encoded payload, and returns its content hash.
func Encode(w io.Writer, h Header, payload []byte) (string, error) {
	blob, sum, err := EncodeBlob(h, func(e *Encoder) { e.buf = append(e.buf, payload...) })
	if err != nil {
		return "", err
	}
	if _, err := w.Write(blob); err != nil {
		return "", fmt.Errorf("snap: write: %w", err)
	}
	return sum, nil
}

// headerReader decodes the stream prefix shared by ReadHeader and
// Decode.
type headerReader struct {
	r     io.Reader
	limit int // largest length field accepted: the stream cap, or an in-memory body's size
	err   error
}

func (hr *headerReader) read(n int) []byte {
	if hr.err != nil {
		return nil
	}
	if n > hr.limit {
		hr.err = fmt.Errorf("snap: length field %d exceeds limit", n)
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(hr.r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			hr.err = fmt.Errorf("snap: truncated snapshot: %w", err)
		} else {
			hr.err = fmt.Errorf("snap: read: %w", err)
		}
		return nil
	}
	return b
}

func (hr *headerReader) u32() uint32 {
	b := hr.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (hr *headerReader) u64() uint64 {
	b := hr.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (hr *headerReader) header() Header {
	var h Header
	magic := hr.read(len(Magic))
	if hr.err != nil {
		return h
	}
	if string(magic) != Magic {
		hr.err = fmt.Errorf("snap: bad magic %q (not a BOW snapshot)", magic)
		return h
	}
	h.Version = hr.u32()
	if hr.err == nil && h.Version != FormatVersion {
		hr.err = fmt.Errorf("snap: format version %d not supported (want %d)", h.Version, FormatVersion)
		return h
	}
	h.Cycle = int64(hr.u64())
	h.ConfigHash = string(hr.read(int(hr.u32())))
	h.KernelHash = string(hr.read(int(hr.u32())))
	h.SpecJSON = hr.read(int(hr.u32()))
	return h
}

// ReadHeader decodes just the snapshot header, without buffering or
// verifying the payload. cmd/bowtrace uses it to recover the job spec
// before committing to a full restore.
func ReadHeader(r io.Reader) (Header, error) {
	hr := &headerReader{r: r, limit: maxSnapshotBytes}
	h := hr.header()
	return h, hr.err
}

// Decode reads a complete snapshot stream, verifies the content hash,
// and returns the header plus a Decoder positioned at the start of the
// payload.
func Decode(r io.Reader) (Header, *Decoder, error) {
	all, err := io.ReadAll(io.LimitReader(r, maxSnapshotBytes+1))
	if err != nil {
		return Header{}, nil, fmt.Errorf("snap: read: %w", err)
	}
	return DecodeBytes(all)
}

// DecodeBytes is Decode over an in-memory stream, without copying the
// payload: the returned Decoder aliases all, so the caller must not
// mutate the blob until the restore is finished. Every checkpoint
// resume and job migration decodes through it, and it always checks
// the content hash before parsing the header.
func DecodeBytes(all []byte) (Header, *Decoder, error) {
	if len(all) > maxSnapshotBytes {
		return Header{}, nil, fmt.Errorf("snap: snapshot exceeds %d byte limit", maxSnapshotBytes)
	}
	if len(all) < sha256.Size {
		return Header{}, nil, fmt.Errorf("snap: truncated snapshot (%d bytes)", len(all))
	}
	body, sum := all[:len(all)-sha256.Size], all[len(all)-sha256.Size:]
	want := sha256.Sum256(body)
	if !bytes.Equal(sum, want[:]) {
		return Header{}, nil, fmt.Errorf("snap: content hash mismatch (corrupt or truncated snapshot)")
	}
	br := bytes.NewReader(body)
	hr := &headerReader{r: br, limit: len(body)}
	h := hr.header()
	if hr.err != nil {
		return Header{}, nil, hr.err
	}
	n := hr.u64()
	if hr.err != nil {
		return Header{}, nil, hr.err
	}
	if n > uint64(br.Len()) {
		return Header{}, nil, fmt.Errorf("snap: truncated snapshot: payload length %d exceeds %d remaining bytes", n, br.Len())
	}
	if int(n) != br.Len() {
		return Header{}, nil, fmt.Errorf("snap: %d trailing bytes after payload", br.Len()-int(n))
	}
	return h, NewDecoder(body[len(body)-br.Len():]), nil
}
