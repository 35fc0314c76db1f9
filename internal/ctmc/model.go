// Package ctmc implements continuous-time Markov chains: model building,
// generator-matrix assembly, steady-state and transient solution,
// state-set entry frequencies, and the equivalent two-state (failure rate,
// recovery rate) abstraction that hierarchical availability models are
// built from.
//
// It is the computational core of the RAScad-equivalent modeling engine
// described in DESIGN.md.
package ctmc

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/sparse"
)

// Common errors reported by the package.
var (
	// ErrBadModel is reported by Validate for structurally invalid models
	// (negative rates, self loops, unknown states, no states).
	ErrBadModel = errors.New("ctmc: invalid model")
	// ErrNotIrreducible is reported when a solution method requires an
	// irreducible chain but the model has unreachable or non-communicating
	// states.
	ErrNotIrreducible = errors.New("ctmc: chain is not irreducible")
	// ErrNoSuchState is reported when a state name does not exist.
	ErrNoSuchState = errors.New("ctmc: no such state")
)

// State identifies a state by dense index within a Model.
type State int

// Transition is a rate-labeled directed edge between two states.
type Transition struct {
	From, To State
	Rate     float64
}

// Model is an immutable CTMC: a finite state space with exponential
// transition rates. Build one with a Builder.
//
// Immutability makes the derived structures below safe to compute once
// and share: the sparse generator (and its transpose) and the
// irreducibility verdict are cached on first use, so the repeated solves
// of parametric sweeps and Monte-Carlo sampling pay assembly cost once
// per model rather than once per solve.
type Model struct {
	names       []string
	index       map[string]State
	transitions []Transition
	// outgoing[s] lists indices into transitions, sorted by target.
	outgoing [][]int

	// Lazily cached derived structures (see SparseGenerator,
	// SparseGeneratorTransposed, IsIrreducible). The sync.Once guards make
	// concurrent first use safe; the cached values are immutable after.
	genOnce sync.Once
	genQ    *sparse.CSR
	genQT   *sparse.CSR
	genErr  error
	irrOnce sync.Once
	irr     bool
}

// Builder accumulates states and transitions and produces a validated Model.
// The zero value is ready to use.
type Builder struct {
	names       []string
	index       map[string]State
	transitions []Transition
	errs        []error
}

// NewBuilder returns an empty model builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[string]State)}
}

// State adds (or finds) a state with the given name and returns its handle.
func (b *Builder) State(name string) State {
	if b.index == nil {
		b.index = make(map[string]State)
	}
	if s, ok := b.index[name]; ok {
		return s
	}
	s := State(len(b.names))
	b.names = append(b.names, name)
	b.index[name] = s
	return s
}

// Transition adds a transition from → to with the given rate. Rates must be
// positive and from ≠ to; violations are collected and reported by Build.
// A zero rate is accepted and dropped (it arises naturally when a model
// parameter, e.g. a maintenance rate, is set to zero).
func (b *Builder) Transition(from, to State, rate float64) {
	if rate == 0 {
		return
	}
	if rate < 0 {
		b.errs = append(b.errs, fmt.Errorf("transition %d→%d has negative rate %g: %w", from, to, rate, ErrBadModel))
		return
	}
	if from == to {
		b.errs = append(b.errs, fmt.Errorf("self loop on state %d: %w", from, ErrBadModel))
		return
	}
	if int(from) < 0 || int(from) >= len(b.names) || int(to) < 0 || int(to) >= len(b.names) {
		b.errs = append(b.errs, fmt.Errorf("transition references unknown state (%d→%d): %w", from, to, ErrBadModel))
		return
	}
	b.transitions = append(b.transitions, Transition{From: from, To: to, Rate: rate})
}

// Build validates and returns the model. Parallel transitions between the
// same pair of states are merged by summing their rates.
func (b *Builder) Build() (*Model, error) {
	if len(b.errs) > 0 {
		return nil, errors.Join(b.errs...)
	}
	if len(b.names) == 0 {
		return nil, fmt.Errorf("model has no states: %w", ErrBadModel)
	}
	// Sort a copy of the transitions by (from, to) and merge adjacent
	// duplicates by summing rates. Sort-and-merge over a slice beats the
	// obvious map accumulation on the hot model-(re)build path that
	// sweeps and Monte-Carlo sampling exercise per evaluation.
	sorted := append([]Transition(nil), b.transitions...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	merged := sorted[:0]
	for _, tr := range sorted {
		if n := len(merged); n > 0 && merged[n-1].From == tr.From && merged[n-1].To == tr.To {
			merged[n-1].Rate += tr.Rate
			continue
		}
		merged = append(merged, tr)
	}
	m := &Model{
		names:       append([]string(nil), b.names...),
		index:       make(map[string]State, len(b.names)),
		transitions: merged,
		outgoing:    make([][]int, len(b.names)),
	}
	for name, s := range b.index {
		m.index[name] = s
	}
	// Count then fill: the outgoing index lists stay sorted by target
	// because the transitions themselves are.
	counts := make([]int, len(b.names))
	for _, tr := range m.transitions {
		counts[tr.From]++
	}
	idxBuf := make([]int, len(m.transitions))
	for s, c := range counts {
		if c == 0 {
			continue
		}
		m.outgoing[s] = idxBuf[:0:c]
		idxBuf = idxBuf[c:]
	}
	for idx, tr := range m.transitions {
		m.outgoing[tr.From] = append(m.outgoing[tr.From], idx)
	}
	return m, nil
}

// NumStates returns the size of the state space.
func (m *Model) NumStates() int { return len(m.names) }

// NumTransitions returns the number of (merged) transitions.
func (m *Model) NumTransitions() int { return len(m.transitions) }

// Name returns the name of state s.
func (m *Model) Name(s State) string {
	if int(s) < 0 || int(s) >= len(m.names) {
		return fmt.Sprintf("<state %d>", int(s))
	}
	return m.names[s]
}

// StateByName resolves a state name.
func (m *Model) StateByName(name string) (State, error) {
	s, ok := m.index[name]
	if !ok {
		return 0, fmt.Errorf("%q: %w", name, ErrNoSuchState)
	}
	return s, nil
}

// States returns all state handles in index order.
func (m *Model) States() []State {
	out := make([]State, len(m.names))
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// Transitions returns a copy of the merged transition list.
func (m *Model) Transitions() []Transition {
	return append([]Transition(nil), m.transitions...)
}

// ExitRate returns the total outgoing rate of state s.
func (m *Model) ExitRate(s State) float64 {
	var sum float64
	for _, idx := range m.outgoing[s] {
		sum += m.transitions[idx].Rate
	}
	return sum
}

// Rate returns the (merged) rate from → to, or 0 if absent.
func (m *Model) Rate(from, to State) float64 {
	for _, idx := range m.outgoing[from] {
		if m.transitions[idx].To == to {
			return m.transitions[idx].Rate
		}
	}
	return 0
}

// SparseGenerator assembles Q in CSR form for the Gauss–Seidel solver.
// The CSR (and its transpose) is assembled once and cached — the model is
// immutable — so repeated solves of the same chain skip reassembly.
// Callers must treat the returned matrix as shared and read-only.
func (m *Model) SparseGenerator() (*sparse.CSR, error) {
	m.genOnce.Do(m.assembleSparseGenerator)
	return m.genQ, m.genErr
}

// SparseGeneratorTransposed returns the cached transpose Qᵀ, which the
// Gauss–Seidel solver sweeps for column access. Like SparseGenerator, the
// result is shared and read-only.
func (m *Model) SparseGeneratorTransposed() (*sparse.CSR, error) {
	m.genOnce.Do(m.assembleSparseGenerator)
	return m.genQT, m.genErr
}

func (m *Model) assembleSparseGenerator() {
	n := m.NumStates()
	entries := make([]sparse.Entry, 0, len(m.transitions)+n)
	diag := make([]float64, n)
	for _, tr := range m.transitions {
		entries = append(entries, sparse.Entry{Row: int(tr.From), Col: int(tr.To), Val: tr.Rate})
		diag[tr.From] -= tr.Rate
	}
	for i, d := range diag {
		if d != 0 {
			entries = append(entries, sparse.Entry{Row: i, Col: i, Val: d})
		}
	}
	m.genQ, m.genErr = sparse.NewCSR(n, n, entries)
	if m.genErr == nil {
		m.genQT = m.genQ.Transpose()
	}
}

// Reachable returns the set of states reachable from start following
// transitions forward.
func (m *Model) Reachable(start State) map[State]bool {
	seen := map[State]bool{start: true}
	stack := []State{start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range m.outgoing[s] {
			t := m.transitions[idx].To
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

// IsIrreducible reports whether every state can reach every other state.
// The verdict is computed once and cached (the model is immutable), so
// the per-solve irreducibility guard in SteadyState is free on repeated
// solves of the same chain.
func (m *Model) IsIrreducible() bool {
	m.irrOnce.Do(func() { m.irr = m.computeIrreducible() })
	return m.irr
}

// computeIrreducible checks strong connectivity via forward reachability
// from state 0 on G and on Gᵀ, walking the transition list directly — no
// intermediate reverse model is materialized.
func (m *Model) computeIrreducible() bool {
	n := m.NumStates()
	if n == 0 {
		return false
	}
	// Forward sweep over the existing outgoing adjacency.
	seen := make([]bool, n)
	stack := make([]State, 1, n)
	stack[0] = 0
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, idx := range m.outgoing[s] {
			if t := m.transitions[idx].To; !seen[t] {
				seen[t] = true
				count++
				stack = append(stack, t)
			}
		}
	}
	if count != n {
		return false
	}
	// Backward sweep over a flat reverse adjacency built by counting sort.
	counts := make([]int, n+1)
	for _, tr := range m.transitions {
		counts[tr.To+1]++
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	incoming := make([]State, len(m.transitions))
	cursor := append([]int(nil), counts[:n]...)
	for _, tr := range m.transitions {
		incoming[cursor[tr.To]] = tr.From
		cursor[tr.To]++
	}
	for i := range seen {
		seen[i] = false
	}
	stack = stack[:1]
	stack[0] = 0
	seen[0] = true
	count = 1
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for k := counts[s]; k < counts[s+1]; k++ {
			if t := incoming[k]; !seen[t] {
				seen[t] = true
				count++
				stack = append(stack, t)
			}
		}
	}
	return count == n
}
