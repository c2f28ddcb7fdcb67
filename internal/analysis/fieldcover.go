package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the shared struct-field coverage engine behind the
// statecover, resetcover, and annotcheck passes. It answers one
// question three ways: for a struct annotated //bow:state, is every
// field mentioned inside a given call closure (the serialization
// closure, the restore closure, the reset closure)?
//
// Annotation grammar (see DESIGN §14):
//
//	//bow:state                          on a struct type declaration:
//	                                     the struct is simulation state
//	                                     and its fields are covered.
//	//bow:derived -- <reason>            on a field: not serialized;
//	                                     rebuilt on restore.
//	//bow:snapskip -- <reason>           on a field: not simulation
//	                                     state at this layer (config,
//	                                     wiring, identity); exempt from
//	                                     both snapshot and reset
//	                                     coverage.
//	//bow:resetskip -- <reason>          on a field: intentionally not
//	                                     assigned by Reset (free pools,
//	                                     scratch, fixed geometry).
//
// The engine has two coverage modes, matched to the two bug classes:
//
// Mention-based (closureMentions, used by statecover): a field counts
// as covered when any identifier inside the closure's function bodies
// resolves to that field object. A State method roots both the save
// and the load closure; only its branches guarded on Loading() belong
// to one direction. This deliberately avoids classifying
// the mention (read vs write vs pass-by-pointer), because
// serialization flows through helpers (`enc.U32s(f.vals)`,
// `dec.WordsInto(f.oldDst[:])`) where the interesting access is not an
// assignment. The bug class closed is the silently *forgotten* field,
// and a forgotten field has no mention at all.
//
// Write-based (closureWrites, used by resetcover): a field counts as
// covered only when the closure plausibly *restores* it — it sits on
// an assignment's left-hand side, under an IncDec, in the callee
// expression of a method call (`s.rf.Reset()` resets rf's pointee), as
// an argument to the clear builtin, or as a loop's range expression
// (the body rewrites the elements). Mere reads do not count, and
// function literals are not entered: a closure *defined* during Reset
// runs later, so its accesses say nothing about what Reset restores.
// This is what lets deleting a single `s.cycle = 0` from sm.Reset
// produce a finding even though the tracer callback built by the same
// Reset still reads s.cycle.

// markerDirectives are the field-level markers the engine understands.
var markerDirectives = map[string]bool{
	"derived":   true,
	"snapskip":  true,
	"resetskip": true,
}

// A fieldMarker is one parsed //bow:derived / //bow:snapskip /
// //bow:resetskip comment attached to a struct field.
type fieldMarker struct {
	name   string // directive name without the //bow: prefix
	reason string // text after "--", may be empty (annotcheck flags it)
	pos    token.Pos
}

// A stateField is one named field of a //bow:state struct.
type stateField struct {
	name    string
	obj     *types.Var // field object; nil when unresolvable
	pos     token.Pos
	markers []fieldMarker
}

func (f *stateField) marked(directive string) bool {
	for _, m := range f.markers {
		if m.name == directive {
			return true
		}
	}
	return false
}

func (f *stateField) marker(directive string) (fieldMarker, bool) {
	for _, m := range f.markers {
		if m.name == directive {
			return m, true
		}
	}
	return fieldMarker{}, false
}

// A stateStruct is one struct type annotated //bow:state.
type stateStruct struct {
	name   string
	obj    *types.TypeName
	pos    token.Pos
	fields []*stateField
}

// bowDirective splits a comment of the form "//bow:name rest" into its
// directive name and remainder. Prose that merely mentions a directive
// mid-sentence does not match: the comment text must start with
// "//bow:".
func bowDirective(text string) (name, rest string, ok bool) {
	const prefix = "//bow:"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	s := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i:]), true
	}
	return s, "", true
}

// markerFromComment parses one field-marker comment, returning ok
// false for comments that are not field markers.
func markerFromComment(c *ast.Comment) (fieldMarker, bool) {
	name, rest, ok := bowDirective(c.Text)
	if !ok || !markerDirectives[name] {
		return fieldMarker{}, false
	}
	m := fieldMarker{name: name, pos: c.Pos()}
	if i := strings.Index(rest, "--"); i >= 0 {
		m.reason = strings.TrimSpace(rest[i+2:])
	}
	return m, true
}

// hasStateDirective reports whether a doc comment group carries the
// //bow:state annotation.
func hasStateDirective(groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if name, _, ok := bowDirective(c.Text); ok && name == "state" {
				return true
			}
		}
	}
	return false
}

// collectStateStructs finds every //bow:state struct declared in the
// pass's files, with each field's markers parsed from its doc comment
// (above the field) or line comment (trailing). The second result is
// the set of marker-comment positions consumed by a field, which
// annotcheck uses to flag markers that dangle on nothing.
func collectStateStructs(pass *Pass) ([]*stateStruct, map[token.Pos]bool) {
	var out []*stateStruct
	claimed := map[token.Pos]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				// A single-spec declaration's comment attaches to the
				// GenDecl; grouped specs carry their own docs.
				if !hasStateDirective(gd.Doc, ts.Doc, ts.Comment) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue // annotcheck reports this shape error
				}
				obj, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				ss := &stateStruct{name: ts.Name.Name, obj: obj, pos: ts.Pos()}
				for _, fld := range st.Fields.List {
					markers := fieldMarkers(fld, claimed)
					if len(fld.Names) == 0 {
						// Embedded field: treat the type name as the
						// field name; the object comes from the struct
						// type below.
						ss.fields = append(ss.fields, &stateField{
							name:    embeddedFieldName(fld.Type),
							pos:     fld.Pos(),
							markers: markers,
						})
						continue
					}
					for _, nm := range fld.Names {
						fv, _ := pass.TypesInfo.Defs[nm].(*types.Var)
						ss.fields = append(ss.fields, &stateField{
							name:    nm.Name,
							obj:     fv,
							pos:     nm.Pos(),
							markers: markers,
						})
					}
				}
				resolveEmbedded(ss)
				out = append(out, ss)
			}
		}
	}
	return out, claimed
}

// fieldMarkers parses the markers attached to one AST field (shared by
// every name the field declares) and records their comment positions
// as claimed.
func fieldMarkers(fld *ast.Field, claimed map[token.Pos]bool) []fieldMarker {
	var out []fieldMarker
	for _, g := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if m, ok := markerFromComment(c); ok {
				out = append(out, m)
				claimed[c.Pos()] = true
			}
		}
	}
	return out
}

func embeddedFieldName(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return exprString(e)
}

// resolveEmbedded fills in the field objects of embedded fields from
// the struct's type information.
func resolveEmbedded(ss *stateStruct) {
	if ss.obj == nil {
		return
	}
	st, ok := ss.obj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, f := range ss.fields {
		if f.obj != nil {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if v := st.Field(i); v.Embedded() && v.Name() == f.name {
				f.obj = v
				break
			}
		}
	}
}

// --- package call-closure machinery --------------------------------

// A funcIndex is every package-level function and method declared in
// the pass's files, in declaration order (so root discovery is
// deterministic) and indexed by object (so call edges resolve).
type funcIndex struct {
	decls []*ast.FuncDecl
	byObj map[*types.Func]*ast.FuncDecl
}

func indexFuncs(pass *Pass) *funcIndex {
	idx := &funcIndex{byObj: map[*types.Func]*ast.FuncDecl{}}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx.decls = append(idx.decls, fd)
			idx.byObj[obj] = fd
		}
	}
	return idx
}

// rootsByName returns, in declaration order, every function or method
// whose name satisfies match.
func (idx *funcIndex) rootsByName(match func(string) bool) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, fd := range idx.decls {
		if match(fd.Name.Name) {
			out = append(out, fd)
		}
	}
	return out
}

// methodOf returns the declared method of the named receiver type with
// one of the given names, or nil.
func (idx *funcIndex) methodOf(pass *Pass, recv *types.TypeName, names ...string) *ast.FuncDecl {
	if recv == nil {
		return nil
	}
	for _, fd := range idx.decls {
		if receiverTypeName(pass, fd) != recv {
			continue
		}
		for _, n := range names {
			if fd.Name.Name == n {
				return fd
			}
		}
	}
	return nil
}

// receiverTypeName resolves the named type a method declaration hangs
// off, or nil for plain functions.
func receiverTypeName(pass *Pass, fd *ast.FuncDecl) *types.TypeName {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// walkDir is a direction of the snapshot walk: the save closure or the
// load closure.
type walkDir uint8

const (
	walkSave walkDir = 1 << iota
	walkLoad
	walkBoth = walkSave | walkLoad
)

// branchDirs reports which walk directions run an if statement's body
// and its else branch. A State method walks both directions, and
// guards its one-sided parts on its argument's Loading method:
// `if st.Loading()` (alone or as a conjunct) runs its body only on
// load, `if !st.Loading()` only on save, and the else branch of a bare
// guard runs only in the other direction.
func branchDirs(cond ast.Expr) (body, els walkDir) {
	switch loadingGuard(cond) {
	case walkLoad:
		return walkLoad, walkSave
	case walkSave:
		return walkSave, walkLoad
	}
	if x, ok := ast.Unparen(cond).(*ast.BinaryExpr); ok && x.Op == token.LAND {
		l, _ := branchDirs(x.X)
		r, _ := branchDirs(x.Y)
		return l & r, walkBoth
	}
	return walkBoth, walkBoth
}

// loadingGuard classifies a bare `x.Loading()` (walkLoad) or
// `!x.Loading()` (walkSave) condition; anything else is walkBoth.
func loadingGuard(cond ast.Expr) walkDir {
	cond = ast.Unparen(cond)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		if loadingGuard(u.X) == walkLoad {
			return walkSave
		}
		return walkBoth
	}
	if c, ok := cond.(*ast.CallExpr); ok && len(c.Args) == 0 {
		if sel, ok := c.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Loading" {
			return walkLoad
		}
	}
	return walkBoth
}

// closureMentions walks the given root functions and, transitively,
// every same-package function they call, collecting the set of struct
// fields mentioned anywhere inside that runs in direction dir: a
// branch guarded for the other direction (see branchDirs) is skipped.
// Calls that leave the package (`sc.State(st)` on another package's
// type) end the walk there — the callee covers its own fields in its
// own package's pass.
func closureMentions(pass *Pass, idx *funcIndex, roots []*ast.FuncDecl, dir walkDir) map[*types.Var]bool {
	mentions := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]bool{}
	queue := append([]*ast.FuncDecl(nil), roots...)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			// Selector fields (s.cycle), composite-literal keys
			// (RunStats{Cycles: c}), and embedded promotions all
			// resolve through Uses to the field object.
			if v, ok := pass.TypesInfo.Uses[x].(*types.Var); ok && v.IsField() {
				mentions[v] = true
			}
		case *ast.CallExpr:
			if fn := calleeFunc(pass.TypesInfo, x); fn != nil {
				if callee := idx.byObj[fn]; callee != nil && !seen[callee] {
					queue = append(queue, callee)
				}
			}
		case *ast.IfStmt:
			body, els := branchDirs(x.Cond)
			for _, part := range []struct {
				n   ast.Node
				run walkDir
			}{{x.Init, walkBoth}, {x.Cond, walkBoth}, {x.Body, body}, {x.Else, els}} {
				if part.n != nil && part.run&dir != 0 {
					ast.Inspect(part.n, visit)
				}
			}
			return false
		}
		return true
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd == nil || seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, visit)
	}
	return mentions
}

// closureWrites is the write-based variant of closureMentions: it
// collects only the fields the closure plausibly restores. A field is
// covered when, anywhere in the root functions or their same-package
// callees (function literals excluded — they run after Reset returns,
// not during it), the field appears
//
//   - under the left-hand side of an assignment (`s.cycle = 0`,
//     `b.pendingWrite[i] = regBits{}`, `w.far = w.far[:0]`),
//   - under an IncDecStmt,
//   - in the callee expression of a call (`s.rf.Reset()`,
//     `s.wheel.reset()`, `w.slots[i].take()` — delegated restoration),
//   - as an argument to the clear builtin (`clear(s.ctas)`), or
//   - as a loop's range expression (`for i := range f.banks` — the
//     body rewrites the elements).
//
// Reads outside those positions do not count, so a field whose only
// restoring write is deleted loses coverage even if the reset path
// still reads it elsewhere.
func closureWrites(pass *Pass, idx *funcIndex, roots []*ast.FuncDecl) map[*types.Var]bool {
	writes := map[*types.Var]bool{}
	seen := map[*ast.FuncDecl]bool{}
	queue := append([]*ast.FuncDecl(nil), roots...)
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok && v.IsField() {
					writes[v] = true
				}
			}
			return true
		})
	}
	for len(queue) > 0 {
		fd := queue[0]
		queue = queue[1:]
		if fd == nil || seen[fd] {
			continue
		}
		seen[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false // defined now, runs later
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					mark(lhs)
				}
			case *ast.IncDecStmt:
				mark(x.X)
			case *ast.RangeStmt:
				mark(x.X)
			case *ast.CallExpr:
				if fn := calleeFunc(pass.TypesInfo, x); fn != nil {
					if callee := idx.byObj[fn]; callee != nil && !seen[callee] {
						queue = append(queue, callee)
					}
				}
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "clear" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						for _, arg := range x.Args {
							mark(arg)
						}
					}
				}
				mark(x.Fun)
			}
			return true
		})
	}
	return writes
}

// --- closure root predicates ---------------------------------------

// isSaveRoot matches the entry points of a package's serialization
// path: State (the component convention: one walk that both saves and
// loads, so it roots both closures), SaveState (a component whose save
// half stays split), Snapshot (gpu.Device), and Encode (internal/snap's
// header writer).
func isSaveRoot(name string) bool {
	return name == "State" || name == "SaveState" || name == "Snapshot" || name == "Encode"
}

// isLoadRoot matches the entry points of a package's restore path:
// State (see isSaveRoot), LoadState (a split load half), Restore*
// (gpu.Device), and Decode* (internal/snap).
func isLoadRoot(name string) bool {
	return name == "State" || name == "LoadState" ||
		strings.HasPrefix(name, "Restore") ||
		strings.HasPrefix(name, "Decode")
}

// resetMethodNames are the method names resetcover treats as a
// struct's in-place recycling entry point. Both exported and
// unexported spellings occur in-tree (sm.SM.Reset, eventWheel.reset).
var resetMethodNames = []string{"Reset", "reset"}
