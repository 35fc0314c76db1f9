// Package reward adds the Markov reward layer on top of package ctmc:
// reward vectors over states, steady-state expected reward (availability),
// yearly downtime, failure frequency, MTBF, and performability measures.
//
// Conventions follow the paper (DSN'04): a reward rate of 1 marks a working
// state, 0 a failure state; intermediate rewards express degraded
// (performability) states. Yearly downtime uses the paper's 525,600-minute
// year (365 days).
package reward

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/ctmc"
)

// MinutesPerYear is the paper's yearly-downtime conversion constant
// (365 days × 24 h × 60 min).
const MinutesPerYear = 365 * 24 * 60

// HoursPerYear is the rate-parameter conversion constant the paper uses
// (failure rates are quoted per year, model rates per hour).
const HoursPerYear = 8760

// ErrReward is reported for invalid reward structures.
var ErrReward = errors.New("reward: invalid reward structure")

// Structure assigns a reward rate to every state of a model.
type Structure struct {
	model *ctmc.Model
	rates []float64
	// down flags the reward-0 states, one entry per state.
	down []bool
}

// New builds a reward structure. rates must have one entry per model state,
// each in [0, ∞). States with reward 0 are classified as down states.
func New(m *ctmc.Model, rates []float64) (*Structure, error) {
	if m == nil {
		return nil, fmt.Errorf("nil model: %w", ErrReward)
	}
	if len(rates) != m.NumStates() {
		return nil, fmt.Errorf("got %d rates for %d states: %w", len(rates), m.NumStates(), ErrReward)
	}
	s := &Structure{
		model: m,
		rates: append([]float64(nil), rates...),
		down:  make([]bool, len(rates)),
	}
	for i, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("state %q has negative reward %g: %w", m.Name(ctmc.State(i)), r, ErrReward)
		}
		s.down[i] = r == 0
	}
	return s, nil
}

// Binary builds the common 0/1 reward structure from the set of down
// (reward-0) state names.
func Binary(m *ctmc.Model, downNames ...string) (*Structure, error) {
	rates := make([]float64, m.NumStates())
	for i := range rates {
		rates[i] = 1
	}
	for _, name := range downNames {
		s, err := m.StateByName(name)
		if err != nil {
			return nil, fmt.Errorf("down state: %w", err)
		}
		rates[s] = 0
	}
	return New(m, rates)
}

// Model returns the underlying CTMC.
func (s *Structure) Model() *ctmc.Model { return s.model }

// Rate returns the reward rate of state st.
func (s *Structure) Rate(st ctmc.State) float64 { return s.rates[st] }

// DownStates returns the set of reward-0 states.
func (s *Structure) DownStates() map[ctmc.State]bool {
	out := make(map[ctmc.State]bool)
	for i, d := range s.down {
		if d {
			out[ctmc.State(i)] = true
		}
	}
	return out
}

// Result collects the steady-state availability measures of a model.
type Result struct {
	// Availability is the steady-state probability of nonzero reward.
	Availability float64
	// ExpectedReward is Σ π_i·r_i (equals Availability for 0/1 rewards;
	// the performability measure otherwise).
	ExpectedReward float64
	// YearlyDowntimeMinutes is (1 − Availability) · 525600.
	YearlyDowntimeMinutes float64
	// FailureFrequency is the steady-state rate of entering the down set,
	// in events per model time unit (per hour for the paper's models).
	FailureFrequency float64
	// MTBFHours is the mean time between system failures: 1/FailureFrequency
	// (time per failure event, including both up and down time).
	MTBFHours float64
	// MeanDownDurationHours is the mean sojourn per visit to the down set:
	// P(down)/FailureFrequency.
	MeanDownDurationHours float64
	// LambdaEq and MuEq are the two-state equivalent rates used by
	// hierarchical composition.
	LambdaEq, MuEq float64
	// Pi is the stationary distribution.
	Pi []float64
}

// Solve computes the steady-state reward measures.
func (s *Structure) Solve(opts ctmc.SolveOptions) (*Result, error) {
	pi, err := s.model.SteadyState(opts)
	if err != nil {
		return nil, fmt.Errorf("reward solve: %w", err)
	}
	return s.FromPi(pi)
}

// FromPi computes the measures from an externally computed stationary
// distribution (useful when the caller already solved the chain).
func (s *Structure) FromPi(pi []float64) (*Result, error) {
	if len(pi) != s.model.NumStates() {
		return nil, fmt.Errorf("pi has %d entries for %d states: %w", len(pi), s.model.NumStates(), ErrReward)
	}
	res := &Result{Pi: append([]float64(nil), pi...)}
	if err := Measure(res, pi, s.rates, s.model.EntryFrequency(pi, s.down)); err != nil {
		return nil, fmt.Errorf("reward solve: %w", err)
	}
	return res, nil
}

// Measure fills every measure of res but Pi from a chain's stationary
// distribution pi, its reward rates (one per state; the reward-0 states
// are the down set) and its failure frequency — the steady-state rate of
// entering the down set. It allocates nothing, so a caller that re-rates
// and re-solves one chain shape per evaluation can keep res in place;
// FromPi is Measure over a copy of π. A measure that comes out
// non-finite (an MTBF of 1/failureFrequency when the frequency is
// subnormal, say) is an error wrapping ctmc.ErrBadModel.
func Measure(res *Result, pi, rates []float64, failureFrequency float64) error {
	var expected, pDown float64
	for i, p := range pi {
		expected += p * rates[i]
		if rates[i] == 0 {
			pDown += p
		}
	}
	res.ExpectedReward = expected
	res.Availability = 1 - pDown
	res.YearlyDowntimeMinutes = pDown * MinutesPerYear
	res.FailureFrequency = failureFrequency
	res.MTBFHours, res.MeanDownDurationHours = 0, 0
	if failureFrequency > 0 {
		res.MTBFHours = 1 / failureFrequency
		res.MeanDownDurationHours = pDown / failureFrequency
	}
	var err error
	res.LambdaEq, res.MuEq, err = ctmc.EquivalentRatesFrom(pDown, failureFrequency)
	if err != nil {
		return err
	}
	for _, m := range [...]struct {
		name string
		v    float64
	}{
		{"availability", res.Availability},
		{"expected reward", res.ExpectedReward},
		{"yearly downtime", res.YearlyDowntimeMinutes},
		{"failure frequency", res.FailureFrequency},
		{"MTBF", res.MTBFHours},
		{"mean down duration", res.MeanDownDurationHours},
		{"λ_eq", res.LambdaEq},
		{"μ_eq", res.MuEq},
	} {
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return fmt.Errorf("%s is %g: %w", m.name, m.v, ctmc.ErrBadModel)
		}
	}
	return nil
}

// DowntimeShare apportions steady-state downtime among disjoint groups of
// down states (e.g. "downtime due to the AS submodel" vs "due to HADB").
// Each group is a set of state names; the returned minutes-per-year values
// sum to the total yearly downtime if the groups cover all down states.
func (s *Structure) DowntimeShare(pi []float64, groups map[string][]string) (map[string]float64, error) {
	if len(pi) != s.model.NumStates() {
		return nil, fmt.Errorf("pi has %d entries for %d states: %w", len(pi), s.model.NumStates(), ErrReward)
	}
	out := make(map[string]float64, len(groups))
	for label, names := range groups {
		var p float64
		for _, name := range names {
			st, err := s.model.StateByName(name)
			if err != nil {
				return nil, fmt.Errorf("group %q: %w", label, err)
			}
			if !s.down[st] {
				return nil, fmt.Errorf("group %q: state %q is not a down state: %w", label, name, ErrReward)
			}
			p += pi[st]
		}
		out[label] = p * MinutesPerYear
	}
	return out, nil
}
