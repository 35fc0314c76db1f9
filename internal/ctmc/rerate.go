package ctmc

import "math"

// Sink receives a chain definition as it is emitted: its states in order
// and its rated transitions. *Builder satisfies it, so one emitter both
// builds a chain and, through Rerate, re-rates a template built from it.
type Sink interface {
	State(name string) State
	Transition(from, to State, rate float64)
}

// Rerate runs emit against the transition slots of tmpl, a model built
// once from the same emitter, and returns a model that shares tmpl's state
// names, name index, outgoing lists and irreducibility verdict but carries
// the newly emitted rates. Parametric sweeps and Monte-Carlo sampling
// solve one chain shape at many rates; re-rating skips a fresh Build's
// name index, sorting, merging and connectivity check.
//
// The emitter must declare the states in tmpl's order. A state emitted
// with an empty name matches whatever tmpl holds at that position; a
// non-empty name must equal it.
//
// ok is false — and the caller should build the chain afresh with a
// Builder, which yields the right topology or validation error — when the
// emission does not match tmpl: the state count or a name differs, a
// transition is absent from tmpl or emitted twice, a template slot is
// never written, or a rate is zero, negative or non-finite.
func Rerate(tmpl *Model, emit func(Sink)) (m *Model, ok bool) {
	r := &rerater{tmpl: tmpl, transitions: make([]Transition, len(tmpl.transitions)), ok: true}
	for idx, tr := range tmpl.transitions {
		r.transitions[idx] = Transition{From: tr.From, To: tr.To}
	}
	emit(r)
	if !r.ok || r.states != len(tmpl.names) {
		return nil, false
	}
	for _, tr := range r.transitions {
		if tr.Rate == 0 {
			return nil, false
		}
	}
	m = &Model{
		names:       tmpl.names,
		index:       tmpl.index,
		transitions: r.transitions,
		outgoing:    tmpl.outgoing,
	}
	// Same states, same edges, all rates positive: same connectivity.
	irr := tmpl.IsIrreducible()
	m.irrOnce.Do(func() { m.irr = irr })
	return m, true
}

// rerater is the Sink behind Rerate. transitions parallels tmpl's merged
// transition list; a zero Rate marks a slot not yet written (zero rates
// are rejected on emission, so a written slot is never zero).
type rerater struct {
	tmpl        *Model
	transitions []Transition
	states      int
	ok          bool
}

func (r *rerater) State(name string) State {
	s := State(r.states)
	r.states++
	if r.states > len(r.tmpl.names) || (name != "" && name != r.tmpl.names[s]) {
		r.ok = false
	}
	return s
}

func (r *rerater) Transition(from, to State, rate float64) {
	if !r.ok {
		return
	}
	if !(rate > 0) || math.IsInf(rate, 1) || int(from) < 0 || int(from) >= len(r.tmpl.outgoing) {
		r.ok = false
		return
	}
	for _, idx := range r.tmpl.outgoing[from] {
		if r.transitions[idx].To == to {
			if r.transitions[idx].Rate != 0 {
				// Parallel transitions: Build merges them, so leave the
				// summation order to it.
				break
			}
			r.transitions[idx].Rate = rate
			return
		}
	}
	r.ok = false
}
