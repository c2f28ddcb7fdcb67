package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AnnotCheck keeps the annotation layer itself honest — the `make
// lint-fix-check` gate. The coverage passes are only as strong as
// their markers: a typoed directive silently checks nothing, a marker
// on a struct nobody annotated //bow:state exempts nothing, and a
// //bow:derived whose field meanwhile got serialized documents a lie.
// This pass flags:
//
//   - unknown //bow: directives (typos) and //bowvet:ignore directives
//     naming nonexistent passes
//   - field markers (//bow:derived, //bow:snapskip, //bow:resetskip)
//     without a "-- reason", or attached to anything that is not a
//     field of a //bow:state struct
//   - //bow:state on a non-struct type, //bow:hotpath outside a
//     function's doc comment
//   - stale markers: //bow:derived on a field the snapshot path in
//     fact writes, //bow:resetskip on a field the struct's Reset in
//     fact assigns
var AnnotCheck = &Analyzer{
	Name: "annotcheck",
	Doc: "//bow: annotations must be well-formed, attached to what they claim to " +
		"mark, carry reasons, and not contradict the code (stale markers)",
}

// Run is wired in init: runAnnotCheck validates //bowvet:ignore pass
// names against Analyzers(), which mentions AnnotCheck itself — a
// static initialization cycle if set in the composite literal.
func init() { AnnotCheck.Run = runAnnotCheck }

// knownDirectives is every //bow: directive the suite understands.
var knownDirectives = map[string]bool{
	"state":     true,
	"hotpath":   true,
	"derived":   true,
	"snapskip":  true,
	"resetskip": true,
}

func runAnnotCheck(pass *Pass) {
	structs, claimedMarkers := collectStateStructs(pass)
	idx := indexFuncs(pass)
	saved := closureMentions(pass, idx, idx.rootsByName(isSaveRoot), walkSave)

	// Marker hygiene and staleness on the collected structs.
	for _, ss := range structs {
		var resetWrites map[*types.Var]bool
		if reset := idx.methodOf(pass, ss.obj, resetMethodNames...); reset != nil {
			resetWrites = closureWrites(pass, idx, []*ast.FuncDecl{reset})
		}
		for _, f := range ss.fields {
			for _, m := range f.markers {
				if m.reason == "" {
					pass.Reportf(m.pos,
						"//bow:%s on %s.%s is missing a reason (write `//bow:%s -- <why>`)",
						m.name, ss.name, f.name, m.name)
				}
			}
			if f.obj == nil {
				continue
			}
			if m, ok := f.marker("derived"); ok && saved[f.obj] {
				pass.Reportf(m.pos,
					"stale //bow:derived on %s.%s: the snapshot path writes this field; drop the marker or the write",
					ss.name, f.name)
			}
			if m, ok := f.marker("resetskip"); ok && resetWrites != nil && resetWrites[f.obj] {
				pass.Reportf(m.pos,
					"stale //bow:resetskip on %s.%s: %s's Reset assigns this field; drop the marker or the assignment",
					ss.name, f.name, ss.name)
			}
		}
	}

	// Structural placement of //bow:state and //bow:hotpath.
	claimedState := map[token.Pos]bool{}
	claimedHotpath := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				claimDirective(d.Doc, "hotpath", claimedHotpath)
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
						if hasStateDirective(d.Doc, ts.Doc, ts.Comment) {
							pass.Reportf(ts.Pos(),
								"//bow:state on %s, which is not a struct type; statecover covers struct fields only",
								ts.Name.Name)
						}
					}
					claimDirective(d.Doc, "state", claimedState)
					claimDirective(ts.Doc, "state", claimedState)
					claimDirective(ts.Comment, "state", claimedState)
				}
			}
		}
	}

	// Every //bow: comment must be a known directive, attached to what
	// it claims to mark. Test files participate: a typoed directive in
	// a test file checks nothing just as silently.
	for _, f := range pass.AllFiles {
		inFiles := containsFile(pass.Files, f)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				checkIgnoreDirective(pass, c)
				name, _, ok := bowDirective(c.Text)
				if !ok {
					continue
				}
				if !knownDirectives[name] {
					pass.Reportf(c.Pos(),
						"unknown //bow: directive %q (known: derived, hotpath, resetskip, snapskip, state)",
						name)
					continue
				}
				if !inFiles {
					continue // attachment is only computed for non-test files
				}
				switch {
				case markerDirectives[name] && !claimedMarkers[c.Pos()]:
					pass.Reportf(c.Pos(),
						"//bow:%s does not attach to a field of a //bow:state struct", name)
				case name == "state" && !claimedState[c.Pos()]:
					pass.Reportf(c.Pos(),
						"//bow:state does not attach to a type declaration")
				case name == "hotpath" && !claimedHotpath[c.Pos()]:
					pass.Reportf(c.Pos(),
						"//bow:hotpath must sit in a function's doc comment")
				}
			}
		}
	}
}

// claimDirective records the positions of the named directive's
// comments inside one doc group.
func claimDirective(g *ast.CommentGroup, directive string, claimed map[token.Pos]bool) {
	if g == nil {
		return
	}
	for _, c := range g.List {
		if name, _, ok := bowDirective(c.Text); ok && name == directive {
			claimed[c.Pos()] = true
		}
	}
}

// checkIgnoreDirective validates the pass names a //bowvet:ignore
// comment cites: an ignore for a pass that does not exist suppresses
// nothing and usually means a typo.
func checkIgnoreDirective(pass *Pass, c *ast.Comment) {
	names, ok := parseIgnore(c.Text)
	if !ok {
		return
	}
	var unknown []string
	for _, a := range Analyzers() {
		delete(names, a.Name)
	}
	delete(names, "all")
	for n := range names {
		unknown = append(unknown, n)
	}
	if len(unknown) == 0 {
		return
	}
	sort.Strings(unknown)
	pass.Reportf(c.Pos(), "//bowvet:ignore names unknown pass(es): %s",
		strings.Join(unknown, ", "))
}

func containsFile(files []*ast.File, f *ast.File) bool {
	for _, g := range files {
		if g == f {
			return true
		}
	}
	return false
}
