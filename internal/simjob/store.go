package simjob

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is a directory of verified result envelopes: one file per spec
// hash, <dir>/<spechash>.json, holding the canonical JobResult wrapped
// with a content hash over exactly those bytes (EncodeResultEnvelope).
// It is the one on-disk form of a result: the Cache's disk tier, the
// GET /result/{hash} peer-fill endpoint (through Cache.Peek), and the
// durable coordinator's result store all read and write through it.
//
// Keys are checked to be spec hashes (64 lowercase hex digits) before
// they touch a path, so a hash taken off the wire — a URL segment, a
// worker's response — can never name a file outside the directory.
type Store struct {
	dir string
}

// resultEnvelope is the framing of one stored result. The content hash
// is verified on every read, so a truncated, torn, or bit-rotted file
// is detected and treated as absent instead of being served as truth.
// Files in the old bare-JobResult format carry no hash and are likewise
// absent.
type resultEnvelope struct {
	ContentHash string          `json:"contentHash"`
	Result      json.RawMessage `json:"result"`
}

// OpenStore opens the store rooted at dir, creating it if needed.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("simjob: result store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// validHash reports whether s has the shape of a spec hash: sha256 in
// lowercase hex.
func validHash(s string) bool {
	if len(s) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Put persists sum under hash and returns the envelope's content hash.
// It refuses a malformed hash and a result that answers a different
// spec (sum.SpecHash != hash). Write-then-rename keeps a crash from
// leaving a torn file; a stray temp file is garbage, never read.
func (s *Store) Put(hash string, sum JobResult) (string, error) {
	if !validHash(hash) {
		return "", fmt.Errorf("simjob: result store: malformed spec hash %q", hash)
	}
	if sum.SpecHash != hash {
		return "", fmt.Errorf("simjob: result store: result for %q stored under %s", sum.SpecHash, hash)
	}
	raw, contentHash, err := EncodeResultEnvelope(sum)
	if err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, hash+".json")); err != nil {
		return "", err
	}
	return contentHash, nil
}

// Get returns the verified result stored under hash. A malformed key
// and a missing, torn, or mismatched file are all simply absent.
func (s *Store) Get(hash string) (JobResult, bool) {
	_, sum, ok := s.read(hash)
	return sum, ok
}

// Raw returns the verified envelope bytes stored under hash, ready to
// hand to another holder (which re-verifies them).
func (s *Store) Raw(hash string) ([]byte, bool) {
	raw, _, ok := s.read(hash)
	return raw, ok
}

func (s *Store) read(hash string) ([]byte, JobResult, bool) {
	if !validHash(hash) {
		return nil, JobResult{}, false
	}
	raw, err := os.ReadFile(filepath.Join(s.dir, hash+".json"))
	if err != nil {
		return nil, JobResult{}, false
	}
	sum, ok := DecodeResultEnvelope(raw, hash)
	return raw, sum, ok
}

// Len counts the stored results (a directory scan; for status
// endpoints, not hot paths).
func (s *Store) Len() int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if name := e.Name(); filepath.Ext(name) == ".json" && name[0] != '.' {
			n++
		}
	}
	return n
}

// contentHashOf is the envelope hash: sha256 over the canonical result
// bytes, hex encoded — the same shape as the spec hash and the
// snapshot content hash.
func contentHashOf(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// EncodeResultEnvelope renders a result into the shared on-disk /
// on-wire framing: canonical JSON wrapped with its content hash. The
// same bytes serve every Store and the GET /result/{hash} peer-fill
// endpoint, so any holder can hand them to any other and the receiver
// re-verifies.
func EncodeResultEnvelope(sum JobResult) (raw []byte, contentHash string, err error) {
	canonical, err := sum.CanonicalJSON()
	if err != nil {
		return nil, "", err
	}
	contentHash = contentHashOf(canonical)
	raw, err = json.Marshal(resultEnvelope{ContentHash: contentHash, Result: canonical})
	return raw, contentHash, err
}

// DecodeResultEnvelope verifies and unwraps envelope bytes against the
// spec hash they claim to answer: envelope parse, content hash over
// the enclosed result bytes, then the result's own spec hash. ok=false
// for any integrity failure — never an error, because a bad envelope
// is simply not a result.
func DecodeResultEnvelope(raw []byte, specHash string) (JobResult, bool) {
	var env resultEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return JobResult{}, false
	}
	if env.ContentHash == "" || len(env.Result) == 0 ||
		contentHashOf(env.Result) != env.ContentHash {
		return JobResult{}, false
	}
	var sum JobResult
	if err := json.Unmarshal(env.Result, &sum); err != nil || sum.SpecHash != specHash {
		return JobResult{}, false
	}
	return sum, true
}
