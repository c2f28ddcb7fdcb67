package analysis

// StateCover proves the checkpoint contract at the source level: every
// field of a //bow:state struct must flow through the package's
// serialization path (the State/SaveState/Snapshot/Encode call
// closure) and its restore path (State/LoadState/Restore/Decode), or
// carry an explicit //bow:derived or //bow:snapskip marker saying why
// not. A State method walks both directions at once, so a field it
// mentions is covered both ways, and its writer and reader cannot
// disagree about order. A new
// simulation-state field that would silently break checkpoint
// determinism — the bug class that forced snap FormatVersion 2 when a
// rival engine's interval counter went unserialized — becomes a lint
// failure naming the exact field instead of a differential-test hunt.
var StateCover = &Analyzer{
	Name: "statecover",
	Doc: "every field of a //bow:state struct must be written by the snapshot path " +
		"and read by the restore path, or carry //bow:derived / //bow:snapskip with a reason",
	Run: runStateCover,
}

func runStateCover(pass *Pass) {
	structs, _ := collectStateStructs(pass)
	if len(structs) == 0 {
		return
	}
	idx := indexFuncs(pass)
	saveRoots := idx.rootsByName(isSaveRoot)
	loadRoots := idx.rootsByName(isLoadRoot)
	if len(saveRoots) == 0 && len(loadRoots) == 0 {
		// A package with //bow:state structs but no serialization path
		// (internal/exec's per-cycle Pipes): only resetcover applies.
		return
	}
	saved := closureMentions(pass, idx, saveRoots, walkSave)
	loaded := closureMentions(pass, idx, loadRoots, walkLoad)
	for _, ss := range structs {
		for _, f := range ss.fields {
			if f.obj == nil || f.marked("derived") || f.marked("snapskip") {
				continue
			}
			if !saved[f.obj] {
				pass.Reportf(f.pos,
					"sim-state field %s.%s is not written by the snapshot path (State/SaveState/Snapshot closure); "+
						"serialize it or mark it //bow:derived / //bow:snapskip with a reason",
					ss.name, f.name)
			} else if !loaded[f.obj] {
				pass.Reportf(f.pos,
					"sim-state field %s.%s is not read by the restore path (State/LoadState/Restore closure); "+
						"restore it or mark it //bow:derived / //bow:snapskip with a reason",
					ss.name, f.name)
			}
		}
	}
}
