package ctmc

import (
	"fmt"

	"repro/internal/numeric"
)

// MeanTimeToAbsorption computes, for each transient (non-absorbing) state,
// the expected time until the chain first enters the absorbing set, via the
// fundamental matrix: solve (−Q_TT)·τ = 1 restricted to transient states.
// States in absorbing are treated as absorbing regardless of their outgoing
// transitions. The returned map has an entry for every state not in the
// absorbing set. States that cannot reach the absorbing set make the
// restricted system singular and yield an error.
func (m *Model) MeanTimeToAbsorption(absorbing map[State]bool) (map[State]float64, error) {
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("no absorbing states given: %w", ErrBadModel)
	}
	var transient []State
	pos := make(map[State]int)
	for s := 0; s < m.NumStates(); s++ {
		if !absorbing[State(s)] {
			pos[State(s)] = len(transient)
			transient = append(transient, State(s))
		}
	}
	if len(transient) == 0 {
		return map[State]float64{}, nil
	}
	nt := len(transient)
	a := numeric.NewMatrix(nt, nt)
	for i, s := range transient {
		a.Set(i, i, m.ExitRate(s))
		for _, idx := range m.outgoing[s] {
			tr := m.transitions[idx]
			if j, ok := pos[tr.To]; ok {
				a.Add(i, j, -tr.Rate)
			}
		}
	}
	ones := make([]float64, nt)
	for i := range ones {
		ones[i] = 1
	}
	tau, err := numeric.SolveLinear(a, ones)
	if err != nil {
		return nil, fmt.Errorf("mean time to absorption (is the absorbing set reachable from every transient state?): %w", err)
	}
	out := make(map[State]float64, nt)
	for i, s := range transient {
		out[s] = tau[i]
	}
	return out, nil
}

// AbsorptionProbabilities computes, for each transient state, the
// probability of being absorbed into each absorbing state, via
// B = (−Q_TT)⁻¹ · Q_TA. The result maps transient state → absorbing state
// → probability.
func (m *Model) AbsorptionProbabilities(absorbing map[State]bool) (map[State]map[State]float64, error) {
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("no absorbing states given: %w", ErrBadModel)
	}
	var transient, absorbed []State
	pos := make(map[State]int)
	for s := 0; s < m.NumStates(); s++ {
		if absorbing[State(s)] {
			absorbed = append(absorbed, State(s))
		} else {
			pos[State(s)] = len(transient)
			transient = append(transient, State(s))
		}
	}
	nt := len(transient)
	out := make(map[State]map[State]float64, nt)
	if nt == 0 {
		return out, nil
	}
	a := numeric.NewMatrix(nt, nt)
	for i, s := range transient {
		a.Set(i, i, m.ExitRate(s))
		for _, idx := range m.outgoing[s] {
			tr := m.transitions[idx]
			if j, ok := pos[tr.To]; ok {
				a.Add(i, j, -tr.Rate)
			}
		}
	}
	f, err := numeric.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("absorption probabilities: %w", err)
	}
	for i := range transient {
		out[transient[i]] = make(map[State]float64, len(absorbed))
	}
	rhs := make([]float64, nt)
	for _, abs := range absorbed {
		for i, s := range transient {
			var r float64
			for _, idx := range m.outgoing[s] {
				if m.transitions[idx].To == abs {
					r = m.transitions[idx].Rate
				}
			}
			rhs[i] = r
		}
		col, err := f.Solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("absorption probabilities: %w", err)
		}
		for i, s := range transient {
			out[s][abs] = col[i]
		}
	}
	return out, nil
}

// EquivalentRates reduces the model to a two-state (up, down) abstraction,
// the RAScad hierarchical-modeling primitive: given the partition of states
// into up (reward 1) and down (reward 0) via the down set, it returns
//
//	λ_eq = failure frequency / P(up)   (rate of leaving the up macro-state)
//	μ_eq = failure frequency / P(down) (rate of leaving the down macro-state)
//
// so that a two-state chain with these rates has the same steady-state
// availability P(up) and the same failure frequency as the full model.
func (m *Model) EquivalentRates(pi []float64, down map[State]bool) (lambdaEq, muEq float64, err error) {
	if len(pi) != m.NumStates() {
		return 0, 0, fmt.Errorf("pi has length %d, want %d: %w", len(pi), m.NumStates(), ErrBadModel)
	}
	// Sum in state order, not map order, so the result does not depend
	// on map iteration.
	var pDown float64
	for s, p := range pi {
		if down[State(s)] {
			pDown += p
		}
	}
	return EquivalentRatesFrom(pDown, m.EntryFrequency(pi, down))
}

// EquivalentRatesFrom is the two-state reduction from a chain's steady-state
// down probability and failure frequency: λ_eq = freq/(1−pDown) and, when
// pDown > 0, μ_eq = freq/pDown (else 0).
func EquivalentRatesFrom(pDown, freq float64) (lambdaEq, muEq float64, err error) {
	pUp := 1 - pDown
	if pUp <= 0 {
		return 0, 0, fmt.Errorf("no steady-state up probability: %w", ErrBadModel)
	}
	lambdaEq = freq / pUp
	if pDown > 0 {
		muEq = freq / pDown
	}
	return lambdaEq, muEq, nil
}
