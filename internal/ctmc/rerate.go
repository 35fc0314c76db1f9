package ctmc

import (
	"fmt"
	"math"
)

// Sink receives a chain definition as it is emitted: its states in order
// and its rated transitions. *Builder satisfies it, so one emitter both
// builds a chain and, through a Rerater, re-rates a template built from
// it.
type Sink interface {
	State(name string) State
	Transition(from, to State, rate float64)
}

// Rerater is a reusable re-rating of a template model: a Sink that writes
// each emitted rate into the matching transition slot of tmpl, a model
// built once from the same emitter. Parametric sweeps and Monte-Carlo
// sampling solve one chain shape at many rates; re-rating in place skips a
// fresh Build's name index, sorting, merging and connectivity check, and
// a reused Rerater allocates nothing.
//
// Use it as Reset, run the emitter against it, then Matched. The emitter
// must declare the states in tmpl's order. A state emitted with an empty
// name matches whatever tmpl holds at that position; a non-empty name must
// equal it.
//
// Matched is false — and the caller should build the chain afresh with a
// Builder, which yields the right topology or validation error — when the
// emission does not fit tmpl: the state count or a name differs, a
// transition is absent from tmpl or emitted twice, a template slot is
// never written, or a rate is zero, negative or non-finite. Same states,
// same edges and all rates positive give the template's connectivity, so
// a matched chain is irreducible exactly when tmpl is.
//
// A Rerater is not safe for concurrent use; the template is only read.
type Rerater struct {
	tmpl *Model
	// transitions parallels tmpl's merged transition list; a zero Rate
	// marks a slot not yet written (zero rates are rejected on emission,
	// so a written slot is never zero).
	transitions []Transition
	states      int
	ok          bool
}

// NewRerater returns a re-rating of tmpl, ready for an emission.
func NewRerater(tmpl *Model) *Rerater {
	r := &Rerater{tmpl: tmpl, transitions: make([]Transition, len(tmpl.transitions))}
	for idx, tr := range tmpl.transitions {
		r.transitions[idx] = Transition{From: tr.From, To: tr.To}
	}
	r.Reset()
	return r
}

// Reset clears the previous emission.
func (r *Rerater) Reset() {
	for idx := range r.transitions {
		r.transitions[idx].Rate = 0
	}
	r.states = 0
	r.ok = true
}

// State implements Sink.
func (r *Rerater) State(name string) State {
	s := State(r.states)
	r.states++
	if r.states > len(r.tmpl.names) || (name != "" && name != r.tmpl.names[s]) {
		r.ok = false
	}
	return s
}

// Transition implements Sink.
func (r *Rerater) Transition(from, to State, rate float64) {
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

// Matched reports whether the emission since Reset fits the template.
func (r *Rerater) Matched() bool {
	if !r.ok || r.states != len(r.tmpl.names) {
		return false
	}
	for _, tr := range r.transitions {
		if tr.Rate == 0 {
			return false
		}
	}
	return true
}

// Transitions returns the re-rated transitions in the template's merged
// order. The slice is the Rerater's own: it is valid until the next Reset
// and must not be modified.
func (r *Rerater) Transitions() []Transition { return r.transitions }

// SolveDense computes the stationary distribution of a matched emission
// into pi (one entry per state) by the dense method, through s's scratch
// storage. It is the dense path of SteadyState — the same GTH reduction
// and normalization, so the same bits — for callers that re-rate a chain
// per evaluation: it counts the solve in ctmc_solves_total and the
// last-solve gauges, but records no span and no latency sample, and
// allocates nothing once s has solved a chain this size.
func (r *Rerater) SolveDense(s *Solver, pi []float64) error {
	n := len(r.tmpl.names)
	if len(pi) != n {
		return fmt.Errorf("pi has length %d, want %d: %w", len(pi), n, ErrBadModel)
	}
	if !r.tmpl.IsIrreducible() {
		return fmt.Errorf("steady state undefined: %w", ErrNotIrreducible)
	}
	if err := solveDense(s, n, r.transitions, pi); err != nil {
		obsSolveErrors.Inc()
		return err
	}
	obsLastStates.Set(float64(n))
	obsLastResidual.Set(0)
	obsSolvesTotal[MethodDense].Inc()
	return nil
}

// EntryFrequency is Model.EntryFrequency over the re-rated transitions.
func (r *Rerater) EntryFrequency(pi []float64, target []bool) float64 {
	return crossingFrequency(r.transitions, pi, target, false)
}
