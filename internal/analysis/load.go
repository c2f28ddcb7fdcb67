package analysis

import (
	"bytes"
	"encoding/json"
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
	"strings"
)

// listPackage is the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	ForTest    string // set on test variants: the package under test
	DepOnly    bool
	Standard   bool
	Error      *struct{ Err string }
}

// Load type-checks the packages matching the patterns (resolved
// relative to dir) and returns them ready for analysis. It shells out
// to `go list -export -deps -test -json`, so the tree must compile —
// which is exactly the precondition for proving anything about it.
// Imports are satisfied from the build cache's export data; no network
// and no third-party dependencies are involved.
//
// Listing with -test matters: annotcheck walks test files, so each
// package with in-package test files is analyzed in its test-augmented
// form — the same unit `go vet` hands the vettool. The generated .test
// mains are skipped, and the plain form is dropped when an augmented
// twin exists so nothing is reported twice.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPackage
	augmented := map[string]bool{} // packages with a test-augmented twin
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("package %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.ForTest != "" {
			// "pkg [pkg.test]" is pkg plus its in-package test files;
			// "pkg_test [pkg.test]" is the external test package. Both are
			// analyzed (external test packages carry markers too); the
			// internal form supersedes the plain listing.
			if strings.HasPrefix(p.ImportPath, p.ForTest+" [") {
				augmented[p.ForTest] = true
				p.ImportPath = p.ForTest
			} else {
				p.ImportPath = strings.TrimSuffix(strings.Fields(p.ImportPath)[0], " ")
			}
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		if t.ForTest == "" && augmented[t.ImportPath] {
			continue // superseded by its test-augmented twin
		}
		pkg, err := checkPackage(fset, imp, t.ImportPath, t.Dir, t.GoFiles, nil)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// CheckFiles parses and type-checks one package from an explicit file
// list with the given importer — the entry point for bowvet's vettool
// mode, where the go command supplies the sources and export data.
// Test files among goFiles participate in type checking but are
// excluded from analysis, so diagnostics only land on shipping code.
func CheckFiles(fset *token.FileSet, imp types.Importer, path, dir string, goFiles []string) (*Package, error) {
	return checkPackage(fset, imp, path, dir, goFiles, nil)
}

// checkPackage parses and type-checks one package. extraFiles (test
// files in vettool mode) participate in type checking but are excluded
// from Pass.Files, so diagnostics only land on shipping code.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, goFiles, extraFiles []string) (*Package, error) {
	var files, allFiles []*ast.File
	parse := func(name string) (*ast.File, error) {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		return parser.ParseFile(fset, name, nil, parser.ParseComments)
	}
	for _, g := range goFiles {
		f, err := parse(g)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", g, err)
		}
		allFiles = append(allFiles, f)
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			files = append(files, f)
		}
	}
	for _, g := range extraFiles {
		f, err := parse(g)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", g, err)
		}
		allFiles = append(allFiles, f)
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, allFiles, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{
		Path:      path,
		Fset:      fset,
		Files:     files,
		AllFiles:  allFiles,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}
