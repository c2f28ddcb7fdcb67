package bow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests keeps the hand-written test selections in
// .github/workflows/ci.yml and the Makefile honest: go test passes
// silently when a -run alternative matches nothing, so a renamed or
// deleted test would drop out of its CI step unseen. Every go test
// command in both files is split into its -run, -fuzz and -bench
// patterns and its package arguments; each '|' alternative of a
// pattern must match at least one Test, Fuzz or Benchmark function
// (by kind) declared in those packages. A -run next to -fuzz or -bench
// only switches the plain tests off, so it is not checked.
func TestCIPatternsMatchTests(t *testing.T) {
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for _, cmd := range goTestCommands(string(src)) {
			flags, pkgs := parseGoTest(cmd)
			if len(pkgs) == 0 {
				t.Errorf("%s: no package arguments in %q", file, cmd)
				continue
			}
			if flags["-fuzz"] != "" || flags["-bench"] != "" {
				delete(flags, "-run")
			}
			for flag, prefixes := range map[string][]string{
				"-run":   {"Test", "Fuzz"},
				"-fuzz":  {"Fuzz"},
				"-bench": {"Benchmark"},
			} {
				pattern := flags[flag]
				if pattern == "" {
					continue
				}
				names := declaredFuncs(t, pkgs, prefixes)
				for _, alt := range strings.Split(pattern, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: %s %q: %v", file, flag, alt, err)
						continue
					}
					checked++
					if !anyMatch(re, names) {
						t.Errorf("%s: %s alternative %q matches no %s function in %v",
							file, flag, alt, strings.Join(prefixes, "/"), pkgs)
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: found no go test pattern to check; has the command syntax changed?", file)
		}
		t.Logf("%s: %d pattern alternatives checked", file, checked)
	}
}

// goTestCommands returns every go test command in a CI workflow or a
// Makefile, one per element of a &&, || or ; chain.
func goTestCommands(src string) []string {
	var cmds []string
	for _, line := range strings.Split(src, "\n") {
		for _, part := range shellSeparator.Split(line, -1) {
			part = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(part), "run:"))
			if strings.HasPrefix(part, "go test") || strings.HasPrefix(part, "$(GO) test") {
				cmds = append(cmds, part)
			}
		}
	}
	return cmds
}

var (
	shellSeparator = regexp.MustCompile(`&&|;|\|\|`)
	shellWord      = regexp.MustCompile(`'[^']*'|"[^"]*"|\S+`)
)

// parseGoTest splits a go test command into its pattern flags and its
// package arguments (relative paths, possibly ending in /...).
func parseGoTest(cmd string) (map[string]string, []string) {
	words := shellWord.FindAllString(cmd, -1)
	flags := map[string]string{}
	var pkgs []string
	for i := 2; i < len(words); i++ {
		w := strings.Trim(words[i], `'"`)
		switch {
		case (w == "-run" || w == "-fuzz" || w == "-bench") && i+1 < len(words):
			flags[w] = strings.Trim(words[i+1], `'"`)
			i++
		case w == "." || strings.HasPrefix(w, "./"):
			pkgs = append(pkgs, w)
		}
	}
	return flags, pkgs
}

// declaredFuncs returns the names of the top-level functions with one
// of the given prefixes declared in the test files of pkgs.
func declaredFuncs(t *testing.T, pkgs []string, prefixes []string) []string {
	t.Helper()
	var dirs []string
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		if !recursive {
			dirs = append(dirs, filepath.Clean(root))
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			// go's ./... skips these, and so does this walk.
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			dirs = append(dirs, path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil {
					continue
				}
				for _, prefix := range prefixes {
					if strings.HasPrefix(fd.Name.Name, prefix) {
						names = append(names, fd.Name.Name)
					}
				}
			}
		}
	}
	return names
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
