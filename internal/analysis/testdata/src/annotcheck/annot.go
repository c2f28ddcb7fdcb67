// Package annotcheck exercises the annotation-hygiene pass: typoed
// directives, missing reasons, markers attached to nothing, //bow:state
// on a non-struct, misplaced //bow:hotpath, stale markers that
// contradict the code, and //bowvet:ignore citing unknown passes.
package annotcheck

type encoder struct{}

func (e *encoder) I64(v int64) {}

type decoder struct{}

func (d *decoder) I64() int64 { return 0 }

//bow:state
type machine struct {
	cycle int64
	okDer int64 //bow:derived -- rederived from cycle on load
	bad   int64 //bow:derived // want "missing a reason"
	lie   int64 //bow:derived -- claims rederivation // want "stale //bow:derived on machine.lie"
	fixed int64 //bow:resetskip -- construction constant, Reset keeps it
	liar2 int64 //bow:resetskip -- claims Reset skips it // want "stale //bow:resetskip on machine.liar2"
}

func (m *machine) SaveState(e *encoder) {
	e.I64(m.cycle)
	e.I64(m.lie) // the snapshot path serializes lie: its marker lies
}

func (m *machine) LoadState(d *decoder) {
	m.cycle = d.I64()
	m.okDer = m.cycle
	m.bad = m.cycle
}

func (m *machine) Reset() {
	m.cycle = 0
	m.liar2 = 0 // Reset restores liar2: its marker lies
}

type state struct{ loading bool }

func (s *state) I64(v *int64) {}

func (s *state) Loading() bool { return s.loading }

// walked rebuilds a derived field inside its State method's load-only
// branch, which is not the snapshot path; one walked field lies.
//
//bow:state
type walked struct {
	cycle int64
	okDer int64 //bow:derived -- rederived from cycle on load
	lie   int64 //bow:derived -- claims rederivation // want "stale //bow:derived on walked.lie"
}

func (w *walked) State(st *state) {
	st.I64(&w.cycle)
	st.I64(&w.lie)
	if st.Loading() {
		w.okDer = w.cycle
	}
}

//bow:staate -- typo // want "unknown //bow: directive"

//bow:state
type Numeric int // want "not a struct type"

//bow:hotpath // want "must sit in a function's doc comment"
var notAFunc = 1

func helper() int {
	//bow:snapskip -- floating marker // want "does not attach to a field"
	return 0
}

//bowvet:ignore nosuchpass -- fixture typo // want "unknown pass"
var ignored = 2
