package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// runFixture loads the fixture package at testdata/src/<dir>, runs the
// analyzer over it, and compares the diagnostics against the fixture's
// `// want "regexp"` comments: every want must be matched by a
// diagnostic on its line, and every diagnostic must be claimed by a
// want. This is the stdlib-only analogue of analysistest.Run.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	root := filepath.Join("testdata", "src", dir)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, filepath.Join(root, e.Name()))
		}
	}
	if len(goFiles) == 0 {
		t.Fatalf("fixture %s has no Go files", dir)
	}

	fset := token.NewFileSet()
	pkg, err := checkPackage(fset, stdImporter(t, fset, goFiles), "fixture/"+dir, "", goFiles, nil)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	got := Run(pkg, []*Analyzer{a})
	wants := collectWants(t, pkg.Fset, pkg.AllFiles)

	matched := make([]bool, len(got))
	for _, w := range wants {
		found := false
		for i, d := range got {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range got {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`// want (.*)$`)

// collectWants parses `// want "re1" "re2"` comments. A want applies to
// the line it sits on.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []want {
	t.Helper()
	var out []want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the double-quoted strings from a want payload.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		j := strings.IndexByte(s[i+1:], '"')
		if j < 0 {
			t.Fatalf("%s: unterminated want pattern in %q", pos, s)
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+j+2:]
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment with no patterns", pos)
	}
	return out
}

// stdImporter builds an importer that serves the export data of the
// standard-library packages the fixture files import, found via
// `go list -export` (offline: export data comes from the build cache).
func stdImporter(t *testing.T, fset *token.FileSet, goFiles []string) types.Importer {
	t.Helper()
	seen := map[string]bool{}
	for _, g := range goFiles {
		f, err := parser.ParseFile(token.NewFileSet(), g, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parsing %s: %v", g, err)
		}
		for _, imp := range f.Imports {
			seen[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	paths := make([]string, 0, len(seen))
	for p := range seen {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	exports := map[string]string{}
	if len(paths) > 0 {
		args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, paths...)
		cmd := exec.Command("go", args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list %v: %v\n%s", paths, err, stderr.String())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, exp, ok := strings.Cut(line, "\t"); ok && exp != "" {
				exports[ip] = exp
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

func TestDeterminismFixture(t *testing.T)   { runFixture(t, Determinism, "determinism") }
func TestHotPathAllocFixture(t *testing.T)  { runFixture(t, HotPathAlloc, "hotpathalloc") }
func TestNilGuardTraceFixture(t *testing.T) { runFixture(t, NilGuardTrace, "nilguardtrace") }
func TestLockSafeFixture(t *testing.T)      { runFixture(t, LockSafe, "locksafe") }

func TestStateCoverFixture(t *testing.T) { runFixture(t, StateCover, "statecover") }
func TestResetCoverFixture(t *testing.T) { runFixture(t, ResetCover, "resetcover") }
func TestAnnotCheckFixture(t *testing.T) { runFixture(t, AnnotCheck, "annotcheck") }
