package analysis

import "go/ast"

// ResetCover closes the stale-carcass bug class the Salvage/Reset
// recycling path (PR 7) introduced: a //bow:state struct that declares
// its own Reset method must assign (or explicitly skip) every field,
// so a new field cannot silently leak one run's state into the next
// salvaged run. Coverage is write-based (closureWrites), rooted at the
// struct's Reset: only restoring positions count — assignment targets,
// delegated `x.Reset()` calls, clear() arguments, range expressions —
// and function literals the Reset merely *builds* are not entered. So
// deleting a single `s.cycle = 0` from sm.Reset makes this pass name
// the field, even though the tracer callback Reset wires up still
// reads s.cycle.
//
// Structs without their own Reset are exempt: they are either rebuilt
// from scratch on recycling (gpu.Device via NewSalvaged) or reset
// field-by-field inside their container's Reset, which covers their
// state under the container's serialization contract instead.
var ResetCover = &Analyzer{
	Name: "resetcover",
	Doc: "every field of a //bow:state struct with a Reset method must be assigned " +
		"by that Reset (or its callees), or carry //bow:resetskip / //bow:snapskip with a reason",
	Run: runResetCover,
}

func runResetCover(pass *Pass) {
	structs, _ := collectStateStructs(pass)
	if len(structs) == 0 {
		return
	}
	idx := indexFuncs(pass)
	for _, ss := range structs {
		reset := idx.methodOf(pass, ss.obj, resetMethodNames...)
		if reset == nil {
			continue
		}
		writes := closureWrites(pass, idx, []*ast.FuncDecl{reset})
		for _, f := range ss.fields {
			if f.obj == nil || f.marked("resetskip") || f.marked("snapskip") {
				continue
			}
			if !writes[f.obj] {
				pass.Reportf(f.pos,
					"sim-state field %s.%s is not assigned by %s.%s (or its callees); "+
						"reset it or mark it //bow:resetskip / //bow:snapskip with a reason",
					ss.name, f.name, ss.name, reset.Name.Name)
			}
		}
	}
}
