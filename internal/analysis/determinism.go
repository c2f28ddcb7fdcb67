package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// simPackages are the packages whose cycle-accurate state feeds the
// bit-identical gpu.Result guarantee. Inside them the strict rules
// apply: no wall-clock time, no global randomness, no goroutines.
// The map-iteration rule applies to every package: an unordered loop
// with order-dependent side effects is a determinism bug wherever the
// output is user-visible or hashed.
var simPackages = map[string]bool{
	"sm": true, "core": true, "gpu": true, "exec": true, "mem": true,
	"regfile": true, "policy": true, "scheduler": true, "scoreboard": true,
	"isa": true, "energy": true,
}

// Determinism proves the simulator's replay guarantee at the source
// level: two runs of the same spec must take bit-identical paths.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid nondeterministic constructs: time/rand/goroutines in simulation " +
		"packages, and map iteration with order-dependent side effects anywhere",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	strict := simPackages[pass.Pkg.Name()]
	for _, f := range pass.Files {
		if strict {
			checkStrictSources(pass, f)
		}
		// The map-order rule needs statement lists so the
		// collect-then-sort idiom can be recognized.
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch s := n.(type) {
			case *ast.BlockStmt:
				list = s.List
			case *ast.CaseClause:
				list = s.Body
			case *ast.CommClause:
				list = s.Body
			default:
				return true
			}
			for i, st := range list {
				if rng, ok := st.(*ast.RangeStmt); ok && isMapRange(pass, rng) {
					checkMapRange(pass, rng, list[i+1:])
				}
			}
			return true
		})
	}
}

// checkStrictSources flags wall-clock reads, global randomness, and
// goroutine spawns in the simulation packages.
func checkStrictSources(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(x.Pos(),
				"goroutine spawn in simulation package %s breaks deterministic replay", pass.Pkg.Name())
		case *ast.CallExpr:
			fn := calleeFunc(pass.TypesInfo, x)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					pass.Reportf(x.Pos(),
						"time.%s in simulation package %s: wall-clock reads are nondeterministic (thread a cycle count instead)",
						fn.Name(), pass.Pkg.Name())
				}
			case "math/rand", "math/rand/v2":
				sig, _ := fn.Type().(*types.Signature)
				if sig != nil && sig.Recv() != nil {
					return true // methods on a seeded *rand.Rand are deterministic
				}
				switch fn.Name() {
				case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
					return true // constructors; determinism depends on the seed, checked at the source
				}
				pass.Reportf(x.Pos(),
					"%s.%s in simulation package %s uses the globally-seeded source; use a seeded *rand.Rand",
					fn.Pkg().Name(), fn.Name(), pass.Pkg.Name())
			}
		}
		return true
	})
}

func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// checkMapRange flags order-dependent side effects in the body of a
// map iteration. Order-free constructs are allowed:
//
//   - declarations and writes to loop-local variables
//   - commutative integer accumulation (+=, |=, ^=, &=, *=, ++, --)
//   - keyed writes m2[expr] = v whose index depends on the iteration
//     (each iteration touches its own key)
//   - delete(m, k) of the ranged map at the loop key
//   - append into an outer slice that a later statement in the same
//     block sorts (the collect-then-sort idiom)
//
// Everything else — statement calls, channel operations, goroutines,
// float/string accumulation, plain writes to outer state — is visible
// in map order and gets flagged.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, tail []ast.Stmt) {
	info := pass.TypesInfo
	lo, hi := rng.Pos(), rng.End()
	loopLocal := func(e ast.Expr) bool {
		id := rootIdent(e)
		if id == nil {
			return false
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		return declaredWithin(obj, lo, hi)
	}
	// mentionsLoopLocal reports whether any identifier inside e is
	// declared within the loop (key, value, or body-derived locals).
	mentionsLoopLocal := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !found {
				if obj := info.Uses[id]; declaredWithin(obj, lo, hi) {
					found = true
				}
			}
			return !found
		})
		return found
	}

	mapStr := exprString(rng.X)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, ok := ast.Unparen(s.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "delete":
						if len(call.Args) == 2 && exprString(call.Args[0]) == mapStr && mentionsLoopLocal(call.Args[1]) {
							return true // delete(m, k): visits each key once, order-free
						}
						pass.Reportf(s.Pos(),
							"delete of another key while ranging over %s is iteration-order dependent", mapStr)
						return true
					case "panic", "clear", "copy":
						return true
					case "print", "println":
						pass.Reportf(s.Pos(), "output inside iteration over map %s appears in nondeterministic order", mapStr)
						return true
					}
				}
			}
			if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
				return true // conversion
			}
			pass.Reportf(s.Pos(),
				"call with potential side effects inside iteration over map %s runs in nondeterministic order (sort the keys first)",
				mapStr)
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, s, rng, tail, loopLocal, mentionsLoopLocal, mapStr)
		case *ast.IncDecStmt:
			if loopLocal(s.X) {
				return true
			}
			if !isIntExpr(info, s.X) {
				pass.Reportf(s.Pos(),
					"non-integer update of %s under iteration over map %s is order-dependent", exprString(s.X), mapStr)
			}
		case *ast.SendStmt:
			pass.Reportf(s.Pos(), "channel send inside iteration over map %s is observed in nondeterministic order", mapStr)
		case *ast.UnaryExpr:
			if s.Op == token.ARROW {
				pass.Reportf(s.Pos(), "channel receive inside iteration over map %s is order-dependent", mapStr)
			}
		case *ast.GoStmt:
			pass.Reportf(s.Pos(), "goroutine launched per entry of map %s starts in nondeterministic order", mapStr)
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, s *ast.AssignStmt, rng *ast.RangeStmt, tail []ast.Stmt,
	loopLocal, mentionsLoopLocal func(ast.Expr) bool, mapStr string) {
	info := pass.TypesInfo
	if s.Tok == token.DEFINE {
		return
	}
	for i, lhs := range s.Lhs {
		lhs = ast.Unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		if loopLocal(lhs) {
			continue
		}
		// Keyed write: each iteration touches its own element. The
		// index may sit anywhere in the access chain, as in
		// code[idx].Target = pc.
		if indexedByLoopLocal(lhs, mentionsLoopLocal) {
			continue
		}
		switch s.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN, token.AND_ASSIGN, token.MUL_ASSIGN:
			if isIntExpr(info, lhs) {
				continue // commutative on integers
			}
			pass.Reportf(s.Pos(),
				"accumulation into %s is order-dependent for its type under iteration over map %s (sort the keys first)",
				exprString(lhs), mapStr)
		case token.ASSIGN:
			// s = append(s, ...) is fine if a later sibling statement
			// sorts s before it can be observed.
			if len(s.Rhs) == len(s.Lhs) {
				if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok {
					if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
						if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
							if target := rootIdent(lhs); target != nil && sortedAfter(info, tail, target) {
								continue
							}
							pass.Reportf(s.Pos(),
								"append to %s under iteration over map %s without a subsequent sort leaves nondeterministic order",
								exprString(lhs), mapStr)
							continue
						}
					}
				}
			}
			pass.Reportf(s.Pos(),
				"assignment to %s depends on the iteration order of map %s", exprString(lhs), mapStr)
		default:
			pass.Reportf(s.Pos(),
				"update of %s with %s under iteration over map %s is order-dependent", exprString(lhs), s.Tok, mapStr)
		}
	}
}

// indexedByLoopLocal reports whether the access chain of lhs contains
// an index expression whose index depends on the iteration — a keyed
// write, where each iteration touches a distinct element.
func indexedByLoopLocal(lhs ast.Expr, mentionsLoopLocal func(ast.Expr) bool) bool {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			if mentionsLoopLocal(x.Index) {
				return true
			}
			lhs = x.X
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

// sortedAfter reports whether a later statement in the same block
// passes the accumulated variable to a sort.* or slices.Sort* call.
func sortedAfter(info *types.Info, tail []ast.Stmt, target *ast.Ident) bool {
	obj := info.Uses[target]
	if obj == nil {
		obj = info.Defs[target]
	}
	for _, st := range tail {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if id := rootIdent(arg); id != nil && info.Uses[id] == obj {
					found = true
					break
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isIntExpr reports whether e's static type is an integer kind.
func isIntExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
