package snap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestRoundTrip exercises every primitive through an encode/decode
// cycle and checks the header survives intact.
func TestRoundTrip(t *testing.T) {
	enc := NewEncoder()
	enc.Section(1)
	enc.U8(0xAB)
	enc.Bool(true)
	enc.Bool(false)
	enc.U32(0xDEADBEEF)
	enc.U64(1 << 60)
	enc.I64(-42)
	enc.Int(-7)
	enc.I32(-1)
	enc.String("world")
	enc.U32s([]uint32{1, 2, 3})
	enc.Words([]uint32{9, 8})
	enc.Section(2)
	enc.I64(99)
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	h := Header{
		Cycle:      12345,
		ConfigHash: "cfg-hash",
		KernelHash: "kern-hash",
		SpecJSON:   []byte(`{"bench":"VECTORADD"}`),
	}
	var buf bytes.Buffer
	hash, err := Encode(&buf, h, payload)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(hash) != 64 {
		t.Fatalf("content hash %q is not sha256 hex", hash)
	}

	got, dec, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Version != FormatVersion || got.Cycle != 12345 ||
		got.ConfigHash != "cfg-hash" || got.KernelHash != "kern-hash" ||
		string(got.SpecJSON) != `{"bench":"VECTORADD"}` {
		t.Fatalf("header mismatch: %+v", got)
	}

	dec.Section(1)
	if v := dec.U8(); v != 0xAB {
		t.Fatalf("U8 = %x", v)
	}
	if !dec.Bool() || dec.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := dec.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := dec.U64(); v != 1<<60 {
		t.Fatalf("U64 = %x", v)
	}
	if v := dec.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := dec.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if v := dec.I32(); v != -1 {
		t.Fatalf("I32 = %d", v)
	}
	if v := dec.String(); v != "world" {
		t.Fatalf("String = %q", v)
	}
	if v := dec.U32s(); len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Fatalf("U32s = %v", v)
	}
	var words [2]uint32
	dec.WordsInto(words[:])
	if words != [2]uint32{9, 8} {
		t.Fatalf("WordsInto = %v", words)
	}
	dec.Section(2)
	if v := dec.I64(); v != 99 {
		t.Fatalf("section 2 I64 = %d", v)
	}
	if err := dec.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestDeterministicEncoding checks the same state yields byte-identical
// snapshots and content hashes.
func TestDeterministicEncoding(t *testing.T) {
	build := func() ([]byte, string) {
		enc := NewEncoder()
		enc.Section(7)
		enc.U32s([]uint32{4, 5, 6})
		payload, err := enc.Bytes()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		var buf bytes.Buffer
		hash, err := Encode(&buf, Header{Cycle: 9}, payload)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		return buf.Bytes(), hash
	}
	b1, h1 := build()
	b2, h2 := build()
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical state produced different snapshot bytes")
	}
	if h1 != h2 {
		t.Fatalf("content hash not stable: %s vs %s", h1, h2)
	}
	blob, h3, err := EncodeBlob(Header{Cycle: 9}, func(e *Encoder) {
		e.Section(7)
		e.U32s([]uint32{4, 5, 6})
	})
	if err != nil || h3 != h1 || !bytes.Equal(blob, b1) {
		t.Fatalf("EncodeBlob disagrees with Encode of the same payload (err %v)", err)
	}
}

// TestSnapshotEncodeBlobReusesScratch interleaves large, failed and small
// encodes through the pooled scratch buffer: no state of one encode may
// leak into the next, and every blob is exactly as long as its stream.
func TestSnapshotEncodeBlobReusesScratch(t *testing.T) {
	big := func(e *Encoder) {
		e.Section(1)
		e.Words(make([]uint32, 1<<16))
		e.Section(2) // left open: EncodeBlob closes it
		e.U64(3)
	}
	small := func(e *Encoder) {
		e.Section(7)
		e.U32s([]uint32{4, 5, 6})
	}
	fail := func(e *Encoder) {
		e.Section(1)
		e.Fail(errors.New("boom"))
	}
	want, wantSum, err := EncodeBlob(Header{Cycle: 9}, small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		b, _, err := EncodeBlob(Header{Cycle: 2, SpecJSON: []byte("{}")}, big)
		if err != nil || len(b) != cap(b) {
			t.Fatalf("big encode: len %d cap %d err %v", len(b), cap(b), err)
		}
		_, dec, err := DecodeBytes(b)
		if err != nil {
			t.Fatalf("big blob does not decode: %v", err)
		}
		dec.Section(1)
		if dec.WordsInto(make([]uint32, 1<<16)); dec.Err() != nil {
			t.Fatalf("big blob's first section does not decode: %v", dec.Err())
		}
		if _, _, err := EncodeBlob(Header{}, fail); err == nil {
			t.Fatal("a failed encode returned no error")
		}
		got, sum, err := EncodeBlob(Header{Cycle: 9}, small)
		if err != nil || sum != wantSum || !bytes.Equal(got, want) {
			t.Fatalf("round %d: small encode after reuse differs (err %v)", i, err)
		}
	}
}

// TestSnapshotEncodeBlobConcurrent encodes from several goroutines at once
// through the shared scratch pool; each must get exactly its own
// stream back.
func TestSnapshotEncodeBlobConcurrent(t *testing.T) {
	fill := func(n int) func(*Encoder) {
		return func(e *Encoder) {
			e.Section(1)
			e.Words(make([]uint32, n))
			e.U32(uint32(n))
		}
	}
	want := make([][]byte, 4)
	for g := range want {
		b, _, err := EncodeBlob(Header{Cycle: int64(g)}, fill(1000*(g+1)))
		if err != nil {
			t.Fatal(err)
		}
		want[g] = b
	}
	var wg sync.WaitGroup
	for g := range want {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, _, err := EncodeBlob(Header{Cycle: int64(g)}, fill(1000*(g+1)))
				if err != nil || !bytes.Equal(b, want[g]) {
					t.Errorf("goroutine %d encode %d: got a different stream (err %v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCorruptionDetected flips a payload byte and checks the content
// hash catches it.
func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Header{Cycle: 1}, []byte{1, 2, 3, 4}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()
	raw[len(raw)-40] ^= 0xFF // inside the payload, before the hash
	if _, _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("Decode accepted a corrupted snapshot")
	}
}

// TestTruncationDetected chops the stream and checks Decode refuses it.
func TestTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Header{Cycle: 1}, bytes.Repeat([]byte{7}, 256)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 4, len(raw) / 2, len(raw) - 1} {
		if _, _, err := Decode(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("Decode accepted a %d-byte truncation of %d bytes", n, len(raw))
		}
	}
}

// TestVersionRejected checks a bumped format version is a hard error.
func TestVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Header{Cycle: 1}, nil); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	raw := buf.Bytes()
	raw[len(Magic)] = 0xFE // version field follows the magic
	_, err := ReadHeader(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("ReadHeader error = %v, want version rejection", err)
	}
}

// TestReadHeaderStopsEarly checks ReadHeader does not consume the
// payload.
func TestReadHeaderStopsEarly(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Encode(&buf, Header{Cycle: 3, SpecJSON: []byte("{}")}, []byte{1, 2, 3}); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	r := bytes.NewReader(buf.Bytes())
	h, err := ReadHeader(r)
	if err != nil {
		t.Fatalf("ReadHeader: %v", err)
	}
	if h.Cycle != 3 || string(h.SpecJSON) != "{}" {
		t.Fatalf("header = %+v", h)
	}
	if r.Len() == 0 {
		t.Fatal("ReadHeader consumed the whole stream")
	}
}

// TestSectionMismatch checks the decoder flags a wrong section id and
// an under-consumed section.
func TestSectionMismatch(t *testing.T) {
	enc := NewEncoder()
	enc.Section(1)
	enc.U32(5)
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec := NewDecoder(payload)
	dec.Section(2)
	if dec.Err() == nil {
		t.Fatal("decoder accepted wrong section id")
	}

	enc = NewEncoder()
	enc.Section(1)
	enc.U32(5)
	enc.Section(2)
	enc.U32(6)
	payload, err = enc.Bytes()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec = NewDecoder(payload)
	dec.Section(1)
	// Section 1's body (4 bytes) deliberately not consumed.
	dec.Section(2)
	if dec.Err() == nil {
		t.Fatal("decoder accepted under-consumed section")
	}
}

// TestCountBoundsRecords: Count accepts a count whose records fit in
// the rest of the open section, and fails — returning 0 — on one that
// claims more bytes than remain.
func TestCountBoundsRecords(t *testing.T) {
	enc := NewEncoder()
	enc.Section(1)
	enc.U32(2)
	enc.I64(7)
	enc.I64(8)
	enc.U32(3) // three 8-byte records claimed, none present
	enc.Section(2)
	enc.U64(0)
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(payload)
	dec.Section(1)
	if n := dec.Count(8); n != 2 || dec.Err() != nil {
		t.Fatalf("Count = %d, err %v; want 2", n, dec.Err())
	}
	dec.I64()
	dec.I64()
	// Section 2's bytes follow, but they belong to another section.
	if n := dec.Count(8); n != 0 || dec.Err() == nil {
		t.Fatalf("Count = %d, err %v; want an error", n, dec.Err())
	}
}

// TestHeaderLengthBoundedByBlob: an in-memory snapshot whose header
// claims a string longer than the blob itself is rejected before the
// string is allocated, even though its content hash verifies.
func TestHeaderLengthBoundedByBlob(t *testing.T) {
	var body []byte
	body = append(body, Magic...)
	body = binary.LittleEndian.AppendUint32(body, FormatVersion)
	body = binary.LittleEndian.AppendUint64(body, 0)
	body = binary.LittleEndian.AppendUint32(body, 1<<29) // config hash length
	body = append(body, "abc"...)
	sum := sha256.Sum256(body)
	blob := append(body, sum[:]...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := DecodeBytes(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a 512 MiB header string in a tiny blob decoded without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("rejecting the header allocated %d bytes", grew)
	}
}
