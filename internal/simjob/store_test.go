package simjob

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestStoreRejectsForeignKeys: Put only writes a result under its own
// spec hash, and only when that hash has the shape of one — a hash taken
// off the wire cannot steer the write out of the store directory or
// onto another spec's entry.
func TestStoreRejectsForeignKeys(t *testing.T) {
	root := t.TempDir()
	s, err := OpenStore(filepath.Join(root, "store"))
	if err != nil {
		t.Fatal(err)
	}
	good := strings.Repeat("ab", 32)
	other := strings.Repeat("cd", 32)
	for _, tc := range []struct {
		name string
		key  string
		sum  JobResult
	}{
		{"path-escape", "../escaped", JobResult{SpecHash: "../escaped"}},
		{"uppercase", strings.ToUpper(good), JobResult{SpecHash: strings.ToUpper(good)}},
		{"short", good[:63], JobResult{SpecHash: good[:63]}},
		{"foreign-result", good, JobResult{SpecHash: other}},
	} {
		if _, err := s.Put(tc.key, tc.sum); err == nil {
			t.Errorf("%s: Put accepted key %q for result %q", tc.name, tc.key, tc.sum.SpecHash)
		}
	}
	if _, err := os.Stat(filepath.Join(root, "escaped.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a result was written outside the store (stat err %v)", err)
	}
	if n := s.Len(); n != 0 {
		t.Errorf("store holds %d results after only rejected puts", n)
	}

	sum := JobResult{SpecHash: good, Bench: "VECTORADD", Cycles: 7}
	contentHash, err := s.Put(good, sum)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(good)
	if !ok || got.Cycles != 7 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	raw, ok := s.Raw(good)
	if !ok {
		t.Fatal("Raw missed a stored result")
	}
	if _, wantHash, _ := EncodeResultEnvelope(sum); wantHash != contentHash {
		t.Errorf("Put returned content hash %s, want %s", contentHash, wantHash)
	}
	if _, ok := DecodeResultEnvelope(raw, good); !ok {
		t.Error("Raw bytes do not verify")
	}
}

// TestResultEndpointRejectsPathEscape: GET /result/{hash} answers 400
// for anything that is not a spec hash, before the key reaches a file
// path — even when a verifying envelope waits just outside the cache
// directory.
func TestResultEndpointRejectsPathEscape(t *testing.T) {
	root := t.TempDir()
	e := newTestEngine(t, Options{Workers: 1, CacheDir: filepath.Join(root, "cache")})
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(srv.Close)

	bait, _, err := EncodeResultEnvelope(JobResult{SpecHash: "../outside", Bench: "VECTORADD"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "outside.json"), bait, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/result/..%2Foutside", "/result/" + strings.Repeat("A", 64), "/result/x"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, resp.StatusCode)
		}
	}
	// A well-formed hash nobody holds is still a plain miss.
	resp, err := http.Get(srv.URL + "/result/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown hash = %d, want 404", resp.StatusCode)
	}
}

// FuzzResultEnvelope feeds arbitrary bytes to the envelope decoder
// (seeded from testdata/fuzz with a real stored result). It must never
// panic, must allocate in proportion to its input, and whatever it
// accepts must answer the spec hash it was asked about and re-encode
// into an envelope that decodes to the same result — a verified
// envelope is a fixed point of encode∘decode.
func FuzzResultEnvelope(f *testing.F) {
	f.Add([]byte(`{"contentHash":"","result":{}}`), "")
	f.Fuzz(func(t *testing.T, raw []byte, specHash string) {
		if len(raw) > 1<<20 {
			return
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		sum, ok := DecodeResultEnvelope(raw, specHash)
		runtime.ReadMemStats(&m1)
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(64*len(raw)+64<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d (bound %d)", len(raw), grew, bound)
		}
		if !ok {
			return
		}
		if sum.SpecHash != specHash {
			t.Fatalf("accepted a result for %q under spec hash %q", sum.SpecHash, specHash)
		}
		again, _, err := EncodeResultEnvelope(sum)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, ok := DecodeResultEnvelope(again, specHash)
		if !ok {
			t.Fatal("re-encoded envelope does not verify")
		}
		a, _ := json.Marshal(sum)
		b, _ := json.Marshal(back)
		if !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the result:\n%s\n%s", a, b)
		}
	})
}
