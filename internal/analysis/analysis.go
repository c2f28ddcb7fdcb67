// Package analysis is a small, dependency-free static-analysis
// framework in the spirit of golang.org/x/tools/go/analysis, carrying
// the passes that prove this repository's invariants at compile time:
//
//   - determinism: the simulation packages may not consult wall-clock
//     time, global randomness, or goroutines, and map iteration with
//     order-dependent side effects is forbidden tree-wide — the
//     bit-identical gpu.Result guarantee becomes a compile-time
//     property instead of something the differential suites catch
//     after the fact.
//   - hotpathalloc: functions annotated //bow:hotpath must not contain
//     allocating constructs, complementing the runtime allocgate
//     (bowbench -allocgate) with source-level diagnosis.
//   - nilguardtrace: trace.CycleTracer call sites keep the nil-guard
//     discipline (disabled tracing is one predictable branch), and
//     trace.SpanLog methods keep the nil-safe-receiver discipline.
//   - locksafe: internal/cluster and internal/simjob may not copy
//     locks or hold a mutex across channel operations or HTTP calls.
//   - statecover: every field of a //bow:state struct must be written
//     by the package's snapshot path and read by its restore path, or
//     carry a //bow:derived / //bow:snapskip marker with a reason —
//     the checkpoint-determinism contract as a build failure.
//   - resetcover: the same coverage engine proves a //bow:state
//     struct's Reset method assigns (or explicitly skips via
//     //bow:resetskip) every field — the carcass-recycling contract.
//   - annotcheck: the annotation layer itself — unknown directives,
//     missing reasons, markers attached to nothing, and stale markers
//     that contradict the code.
//
// The framework is deliberately tiny: an Analyzer runs over one
// type-checked package and reports position-tagged diagnostics. It
// exists because the build environment cannot vendor x/tools; the API
// mirrors go/analysis closely enough that migrating later is
// mechanical.
//
// Suppression: a comment of the form
//
//	//bowvet:ignore <pass>[,<pass>...] [-- reason]
//
// on the offending line, or on the line directly above it, suppresses
// diagnostics of the named passes ("all" suppresses every pass).
// Suppressions should carry a reason; they are for order-free
// fan-outs and amortized allocations, not for silencing real bugs.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant-checking pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and ignore directives.
	Name string
	// Doc is a one-paragraph description of what the pass proves.
	Doc string
	// Run inspects one package via the Pass and reports findings.
	Run func(*Pass)
}

// A Pass is one Analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File // files the pass may report on (non-test)
	// AllFiles adds the test files that participated in type checking.
	// Most passes report on Files only; annotcheck walks AllFiles
	// because annotation markers also live in _test.go files.
	AllFiles  []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, tagged with the pass that produced it.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzers returns the full bowvet suite, in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Determinism, HotPathAlloc, NilGuardTrace, LockSafe,
		StateCover, ResetCover, AnnotCheck,
	}
}

// ByName resolves a pass name, for single-pass runs and tests.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Package bundles everything the analyzers need about one loaded,
// type-checked package. Produced by Load (production trees) and by the
// analysistest fixture loader.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File // files to analyze (non-test files only)
	AllFiles  []*ast.File // files used for type checking (may add tests)
	Types     *types.Package
	TypesInfo *types.Info
}

// Run applies the given analyzers to the package and returns the
// surviving diagnostics, sorted by position, with //bowvet:ignore
// suppressions applied.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			AllFiles:  pkg.AllFiles,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			diags:     &diags,
		}
		a.Run(pass)
	}
	diags = suppress(pkg, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// suppress drops diagnostics covered by //bowvet:ignore directives.
func suppress(pkg *Package, diags []Diagnostic) []Diagnostic {
	// ignores maps filename -> line-of-directive -> set of pass names.
	ignores := map[string]map[int]map[string]bool{}
	for _, f := range pkg.AllFiles {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := ignores[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					ignores[pos.Filename] = byLine
				}
				byLine[pos.Line] = names
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	out := diags[:0]
	for _, d := range diags {
		byLine := ignores[d.Pos.Filename]
		kept := true
		// A directive suppresses findings on its own line (trailing
		// comment) and on the line below it (standalone comment).
		for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
			if names := byLine[line]; names != nil && (names["all"] || names[d.Analyzer]) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, d)
		}
	}
	return out
}

// parseIgnore recognizes "//bowvet:ignore a,b -- reason" comments and
// returns the named passes.
func parseIgnore(text string) (map[string]bool, bool) {
	const prefix = "//bowvet:ignore"
	if !strings.HasPrefix(text, prefix) {
		return nil, false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	if i := strings.Index(rest, "--"); i >= 0 {
		rest = strings.TrimSpace(rest[:i])
	}
	names := map[string]bool{}
	for _, field := range strings.FieldsFunc(rest, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	}) {
		names[field] = true
	}
	if len(names) == 0 {
		names["all"] = true // bare directive ignores everything
	}
	return names, true
}

// --- shared AST / type helpers -------------------------------------

// walkStack traverses every node under root, invoking fn with the
// ancestor stack (outermost first, not including n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFuncBody returns the innermost enclosing function body on
// the stack (FuncDecl body or FuncLit body) containing the node.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// calleeFunc resolves the *types.Func a call invokes, or nil for
// builtins, conversions, and indirect calls through func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// rootIdent peels selectors, indexes, stars, and parens off an
// expression and returns the base identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredWithin reports whether the object's declaration lies inside
// the [lo, hi] source range — i.e. it is local to that region.
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}

// exprString is a stable textual form of an expression, used to match
// guard conditions against receivers (types.ExprString).
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}
