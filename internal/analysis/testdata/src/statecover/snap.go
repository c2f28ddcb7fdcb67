// Package statecover exercises the snapshot-coverage pass: forgotten
// fields in both directions, accepted //bow:derived / //bow:snapskip
// markers, closure traversal through same-package helpers, and State
// methods that walk both directions at once.
package statecover

type encoder struct{ buf []byte }

func (e *encoder) I64(v int64) {}

type decoder struct{ buf []byte }

func (d *decoder) I64() int64 { return 0 }

// state is a one-walk saver or loader.
type state struct{ loading bool }

func (s *state) I64(v *int64) {}

func (s *state) Loading() bool { return s.loading }

// machine is fully covered: cycle round-trips through a helper, heat is
// rederived on load, geom is construction-fixed.
//
//bow:state
type machine struct {
	cycle int64
	heat  int64 //bow:derived -- recomputed from cycle by LoadState
	geom  int   //bow:snapskip -- construction-time geometry, never serialized
}

func (m *machine) SaveState(e *encoder) {
	m.saveCore(e)
}

// saveCore proves coverage follows same-package callees, not just the
// root's own body.
func (m *machine) saveCore(e *encoder) {
	e.I64(m.cycle)
}

func (m *machine) LoadState(d *decoder) {
	m.cycle = d.I64()
	m.rederive()
}

func (m *machine) rederive() { m.heat = m.cycle / 2 }

// leaky forgets one field per direction.
//
//bow:state
type leaky struct {
	saved     int64
	forgotten int64 // want "leaky.forgotten is not written by the snapshot path"
	halfway   int64 // want "leaky.halfway is not read by the restore path"
}

func (l *leaky) SaveState(e *encoder) {
	e.I64(l.saved)
	e.I64(l.halfway)
}

func (l *leaky) LoadState(d *decoder) {
	l.saved = d.I64()
}

// walked lists every field once, in a State method: that covers each
// field both ways, including one reached through a helper.
//
//bow:state
type walked struct {
	cycle int64
	seq   int64
}

func (w *walked) State(st *state) {
	st.I64(&w.cycle)
	w.seqState(st)
}

func (w *walked) seqState(st *state) { st.I64(&w.seq) }

// unwalked leaves one field out of its State method.
//
//bow:state
type unwalked struct {
	kept    int64
	dropped int64 // want "unwalked.dropped is not written by the snapshot path"
}

func (u *unwalked) State(st *state) {
	st.I64(&u.kept)
}

// guarded walks some fields in one direction only: a branch guarded on
// Loading() runs only on load, its else branch only on save.
//
//bow:state
type guarded struct {
	both     int64
	onLoad   int64 // want "guarded.onLoad is not written by the snapshot path"
	onSave   int64 // want "guarded.onSave is not read by the restore path"
	inElse   int64 // want "guarded.inElse is not read by the restore path"
	rebuilt  int64 //bow:derived -- recomputed from both on load
	eitherOK int64
}

func (g *guarded) State(st *state) {
	st.I64(&g.both)
	if st.Loading() && g.both > 0 {
		g.onLoad = 1
		g.rebuilt = g.both * 2
	}
	if !st.Loading() {
		st.I64(&g.onSave)
	}
	if st.Loading() {
		g.eitherOK = 0
	} else {
		st.I64(&g.inElse)
	}
	if g.both > 0 {
		st.I64(&g.eitherOK)
	}
}
