package analysis

import (
	"fmt"
	"go/ast"
	"testing"
)

// TestHotPathAnnotationsRequired pins the //bow:hotpath coverage of the
// simulator's fast paths: the device's per-cycle step, the copy-on-write
// memory read path, and the cycle loop's issue, writeback and window
// engine calls must stay under the hotpathalloc pass. TestRepositoryClean proves annotated functions are clean; this
// test proves the annotations themselves cannot be silently dropped —
// removing one would pass the cleanliness check while losing the
// guarantee.
func TestHotPathAnnotationsRequired(t *testing.T) {
	required := map[string][]string{
		"bow/internal/gpu":  {"(*Device).step"},
		"bow/internal/mem":  {"(*Memory).lookup", "(*Memory).Read32"},
		"bow/internal/sm":   {"(*SM).Cycle", "(*SM).issue", "(*SM).issueInstruction", "(*SM).writeback"},
		"bow/internal/core": {"(*Engine).Advance", "(*Engine).Writeback"},
	}
	pkgs, err := Load(moduleRoot(t), "bow/internal/gpu", "bow/internal/mem", "bow/internal/sm", "bow/internal/core")
	if err != nil {
		t.Fatalf("loading packages: %v", err)
	}
	for _, pkg := range pkgs {
		want, ok := required[pkg.Path]
		if !ok {
			continue
		}
		annotated := make(map[string]bool)
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !isHotPath(fd) {
					continue
				}
				annotated[funcDisplayName(fd)] = true
			}
		}
		for _, name := range want {
			if !annotated[name] {
				t.Errorf("%s: %s must carry //bow:hotpath (simulator fast path)", pkg.Path, name)
			}
		}
		delete(required, pkg.Path)
	}
	for path := range required {
		t.Errorf("package %s not loaded", path)
	}
}

// funcDisplayName renders a FuncDecl as "(recv).Name" or "Name".
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return fmt.Sprintf("(*%s).%s", id.Name, fd.Name.Name)
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		return fmt.Sprintf("(%s).%s", id.Name, fd.Name.Name)
	}
	return fd.Name.Name
}
