package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if v, err := m.Read32(0x100); err != nil || v != 0 {
		t.Errorf("fresh memory read = %d, %v", v, err)
	}
	if err := m.Write32(0x100, 42); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Read32(0x100); v != 42 {
		t.Errorf("read-after-write = %d", v)
	}
	if _, err := m.Read32(0x101); err == nil {
		t.Error("misaligned read accepted")
	}
	if err := m.Write32(0x102, 1); err == nil {
		t.Error("misaligned write accepted")
	}
}

func TestMemoryAtomicAdd(t *testing.T) {
	m := NewMemory()
	m.Write32(0x10, 5)
	old, err := m.AtomicAdd(0x10, 3)
	if err != nil || old != 5 {
		t.Errorf("AtomicAdd old = %d, %v", old, err)
	}
	if v, _ := m.Read32(0x10); v != 8 {
		t.Errorf("after atomic = %d", v)
	}
	if _, err := m.AtomicAdd(0x11, 1); err == nil {
		t.Error("misaligned atomic accepted")
	}
}

func TestMemoryBulkAndSnapshot(t *testing.T) {
	m := NewMemory()
	vals := []uint32{1, 2, 3, 0, 5}
	if err := m.WriteWords(0x200, vals); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadWords(0x200, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("word %d = %d", i, got[i])
		}
	}
	snap := m.Snapshot()
	if len(snap) != 4 { // zero word excluded
		t.Errorf("snapshot has %d words, want 4", len(snap))
	}
}

func TestSharedMemory(t *testing.T) {
	s := NewShared(64)
	if err := s.Write32(60, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read32(60); v != 7 {
		t.Error("shared rw failed")
	}
	if _, err := s.Read32(64); err == nil {
		t.Error("out-of-range shared read accepted")
	}
	if err := s.Write32(1, 1); err == nil {
		t.Error("misaligned shared write accepted")
	}
	if old, err := s.AtomicAdd(60, 2); err != nil || old != 7 {
		t.Errorf("shared atomic old = %d, %v", old, err)
	}
}

func TestCacheGeometry(t *testing.T) {
	if _, err := NewCache("bad", 1000, 128, 4); err == nil {
		t.Error("non-divisible geometry accepted")
	}
	if _, err := NewCache("bad", 0, 128, 4); err == nil {
		t.Error("zero size accepted")
	}
	c, err := NewCache("ok", 4096, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.sets != 8 {
		t.Errorf("sets = %d, want 8", c.sets)
	}
}

func TestCacheHitMissLRU(t *testing.T) {
	// 2 sets, 2 ways, 128B lines = 512B cache.
	c, err := NewCache("t", 512, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0) {
		t.Error("cold access hit")
	}
	if !c.Access(0) || !c.Access(64) {
		t.Error("same line should hit")
	}
	// Lines 0, 2, 4 all map to set 0 (line % 2 == 0). Two ways: 0 and 2
	// fit; 4 evicts LRU (line 0).
	c.Access(2 * 128)
	c.Access(4 * 128)
	if c.Access(0) {
		t.Error("line 0 should have been evicted (LRU)")
	}
	if !c.Access(4 * 128) {
		t.Error("line 4 should be resident")
	}
	if c.HitRate() <= 0 || c.Accesses() == 0 {
		t.Error("stats not tracked")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	l1, _ := NewCache("l1", 1024, 128, 2)
	l2, _ := NewCache("l2", 4096, 128, 4)
	h := &Hierarchy{L1: l1, L2: l2, L1HitCycles: 10, L2HitCycles: 50, DRAMCycles: 200}

	if lat := h.LoadLatency(0); lat != 200 {
		t.Errorf("cold load latency = %d, want DRAM 200", lat)
	}
	if lat := h.LoadLatency(0); lat != 10 {
		t.Errorf("warm load latency = %d, want L1 10", lat)
	}
	// Evict from L1 by filling its set, then the line should hit in L2.
	h.LoadLatency(1024)
	h.LoadLatency(2048)
	if lat := h.LoadLatency(0); lat != 50 {
		t.Errorf("L2 hit latency = %d, want 50", lat)
	}
	if lat := h.StoreLatency(0x9000); lat != 50 {
		t.Errorf("store latency = %d, want L2 allocate 50", lat)
	}
}

func TestCoalesce(t *testing.T) {
	// All lanes in one 128B segment -> 1 transaction.
	addrs := make([]uint32, 32)
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if segs := CoalesceInto(nil, addrs, 0xFFFFFFFF, 128); len(segs) != 1 {
		t.Errorf("unit-stride coalesce = %d segments, want 1", len(segs))
	}
	// Stride 128 -> 32 transactions.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if segs := CoalesceInto(nil, addrs, 0xFFFFFFFF, 128); len(segs) != 32 {
		t.Errorf("stride-128 coalesce = %d segments, want 32", len(segs))
	}
	// Inactive lanes skipped.
	if segs := CoalesceInto(nil, addrs, 0x1, 128); len(segs) != 1 {
		t.Errorf("single-lane coalesce = %d segments, want 1", len(segs))
	}
	if segs := CoalesceInto(nil, addrs, 0, 128); len(segs) != 0 {
		t.Errorf("no active lanes -> %d segments", len(segs))
	}
}

// Property: memory behaves like a map — the last write to an aligned
// address wins, unrelated addresses are untouched.
func TestMemoryProperty(t *testing.T) {
	f := func(addrs []uint32, vals []uint32) bool {
		m := NewMemory()
		shadow := map[uint32]uint32{}
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := addrs[i] &^ 3
			if err := m.Write32(a, vals[i]); err != nil {
				return false
			}
			shadow[a] = vals[i]
		}
		for a, want := range shadow {
			got, err := m.Read32(a)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CoalesceInto returns each segment exactly once and covers every
// active lane.
func TestCoalesceProperty(t *testing.T) {
	f := func(raw []uint32, active uint32) bool {
		addrs := make([]uint32, 32)
		for i := range addrs {
			if i < len(raw) {
				addrs[i] = raw[i] % (1 << 20)
			}
		}
		segs := CoalesceInto(nil, addrs, active, 128)
		seen := map[uint32]bool{}
		for _, s := range segs {
			if s%128 != 0 || seen[s] {
				return false
			}
			seen[s] = true
		}
		for lane := 0; lane < 32; lane++ {
			if active&(1<<uint(lane)) == 0 {
				continue
			}
			if !seen[addrs[lane]/128*128] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCacheResetMatchesFresh dirties a cache, Resets it, and demands
// behavior indistinguishable from a newly built cache with the same
// geometry — the equivalence the engine's device recycling rests on.
func TestCacheResetMatchesFresh(t *testing.T) {
	drive := func(c *Cache) (int64, int64) {
		for i := 0; i < 64; i++ {
			c.Access(uint32(i * 128))
			c.Access(uint32(i * 64))
		}
		return c.Hits, c.Misses
	}
	fresh, err := NewCache("a", 4096, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantHits, wantMisses := drive(fresh)

	recycled, err := NewCache("b", 4096, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	drive(recycled)
	recycled.Reset()
	if recycled.Hits != 0 || recycled.Misses != 0 {
		t.Fatalf("counters after reset: %d/%d", recycled.Hits, recycled.Misses)
	}
	if g := recycled.Geometry(); g != (CacheGeometry{SizeBytes: 4096, LineBytes: 128, Assoc: 4}) {
		t.Fatalf("geometry: %+v", g)
	}
	gotHits, gotMisses := drive(recycled)
	if gotHits != wantHits || gotMisses != wantMisses {
		t.Errorf("replay diverges: %d/%d vs %d/%d", gotHits, gotMisses, wantHits, wantMisses)
	}
}
