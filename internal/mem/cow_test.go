package mem

import (
	"bytes"
	"reflect"
	"testing"

	"bow/internal/snap"
)

// TestForkIsolation checks that writes after a Seal are invisible
// between the sealed memory and a copy-on-write child of its image, in
// both directions.
func TestForkIsolation(t *testing.T) {
	m := NewMemory()
	for i := uint32(0); i < 3000; i++ {
		if err := m.Write32(4*i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	child := m.Seal().NewMemory()

	if err := child.Write32(0, 999); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0); v != 1 {
		t.Fatalf("parent saw child write: %d", v)
	}
	if err := m.Write32(4, 888); err != nil {
		t.Fatal(err)
	}
	if v, _ := child.Read32(4); v != 2 {
		t.Fatalf("child saw parent write: %d", v)
	}
	// Untouched page still shared and visible in both.
	if v, _ := child.Read32(4 * 2999); v != 3000 {
		t.Fatalf("child lost base page: %d", v)
	}
}

// TestForkPageCacheWriteAfterRead drives the one-entry page cache
// hazard: a child's read caches a shared base page, and a subsequent
// write to the same page must still copy-on-write rather than scribble
// on the shared page.
func TestForkPageCacheWriteAfterRead(t *testing.T) {
	m := NewMemory()
	if err := m.Write32(0, 7); err != nil {
		t.Fatal(err)
	}
	child := m.Seal().NewMemory()
	if v, _ := child.Read32(0); v != 7 { // caches the RO base page
		t.Fatalf("read = %d", v)
	}
	if err := child.Write32(0, 42); err != nil { // must COW despite the cache hit
		t.Fatal(err)
	}
	if v, _ := m.Read32(0); v != 7 {
		t.Fatalf("shared base page was mutated: %d", v)
	}
	if v, _ := child.Read32(0); v != 42 {
		t.Fatalf("child lost its own write: %d", v)
	}
}

// TestForkAtomicAdd checks the read-modify-write path of an image's
// child also copies-on-write.
func TestForkAtomicAdd(t *testing.T) {
	m := NewMemory()
	if err := m.Write32(8, 10); err != nil {
		t.Fatal(err)
	}
	child := m.Seal().NewMemory()
	old, err := child.AtomicAdd(8, 5)
	if err != nil || old != 10 {
		t.Fatalf("AtomicAdd = %d, %v", old, err)
	}
	if v, _ := m.Read32(8); v != 10 {
		t.Fatalf("parent saw child atomic: %d", v)
	}
}

// TestMemoryStateRoundTrip checks a State save and load preserve
// contents, including the merged base+overlay view of an image's
// copy-on-write child.
func TestMemoryStateRoundTrip(t *testing.T) {
	m := NewMemory()
	for i := uint32(0); i < 2500; i += 7 {
		if err := m.Write32(4*i, i^0x5a5a); err != nil {
			t.Fatal(err)
		}
	}
	child := m.Seal().NewMemory()
	if err := child.Write32(0, 12345); err != nil { // overlay shadows base
		t.Fatal(err)
	}

	enc := snap.NewEncoder()
	child.State(snap.Save(enc))
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	restored := NewMemory()
	dec := snap.NewDecoder(payload)
	restored.State(snap.Load(dec))
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Snapshot(), child.Snapshot()) {
		t.Fatal("restored memory contents differ")
	}

	// Serialization is deterministic: a restored image re-serializes to
	// the same bytes even though its page tiers differ.
	enc2 := snap.NewEncoder()
	restored.State(snap.Save(enc2))
	payload2, err := enc2.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, payload2) {
		t.Fatal("memory serialization not canonical across page tiers")
	}
}

// TestCacheStateRoundTrip checks cache tag/LRU state survives a
// round trip and geometry mismatches are rejected.
func TestCacheStateRoundTrip(t *testing.T) {
	c, err := NewCache("l1", 1<<14, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 10000; i += 37 {
		c.Access(i * 4)
	}
	enc := snap.NewEncoder()
	c.State(snap.Save(enc))
	payload, err := enc.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	r, err := NewCache("l1", 1<<14, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec := snap.NewDecoder(payload)
	r.State(snap.Load(dec))
	if err := dec.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Hits != c.Hits || r.Misses != c.Misses || r.stamp != c.stamp {
		t.Fatalf("counters differ: %d/%d vs %d/%d", r.Hits, r.Misses, c.Hits, c.Misses)
	}
	if !reflect.DeepEqual(r.tags, c.tags) || !reflect.DeepEqual(r.lru, c.lru) {
		t.Fatal("tag/LRU arrays differ")
	}

	wrong, err := NewCache("l1", 1<<13, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec = snap.NewDecoder(payload)
	wrong.State(snap.Load(dec))
	if dec.Err() == nil {
		t.Fatal("geometry mismatch accepted")
	}
}
