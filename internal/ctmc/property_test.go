package ctmc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomIrreducibleModel builds a random strongly connected chain: a
// directed ring guarantees irreducibility, extra random edges add
// structure.
func randomIrreducibleModel(r *rand.Rand) (*Model, error) {
	n := 2 + r.Intn(10)
	b := NewBuilder()
	states := make([]State, n)
	for i := 0; i < n; i++ {
		states[i] = b.State(string(rune('a' + i)))
	}
	for i := 0; i < n; i++ {
		b.Transition(states[i], states[(i+1)%n], 0.1+5*r.Float64())
		if r.Intn(2) == 0 {
			j := r.Intn(n)
			if j != i {
				b.Transition(states[i], states[j], 0.1+5*r.Float64())
			}
		}
	}
	return b.Build()
}

// TestSteadyStateGlobalBalance: at steady state, for every state the
// probability inflow equals the outflow (global balance), and π is a
// probability vector.
func TestSteadyStateGlobalBalance(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := randomIrreducibleModel(r)
		if err != nil {
			return false
		}
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < 0 {
				return false
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// πQ = 0 componentwise.
		q, err := m.SparseGenerator()
		if err != nil {
			return false
		}
		res, err := q.VecMul(pi, nil)
		if err != nil {
			return false
		}
		for _, v := range res {
			if math.Abs(v) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFlowBalanceAcrossEveryCut: for any subset of states, steady-state
// flow in equals flow out.
func TestFlowBalanceAcrossEveryCut(t *testing.T) {
	t.Parallel()
	f := func(seed int64, mask uint16) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := randomIrreducibleModel(r)
		if err != nil {
			return false
		}
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			return false
		}
		cut := make([]bool, m.NumStates())
		for i := range cut {
			cut[i] = mask&(1<<uint(i)) != 0
		}
		in := m.EntryFrequency(pi, cut)
		out := m.ExitFrequency(pi, cut)
		return math.Abs(in-out) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestEquivalentRatesPreserveMeasures: the two-state reduction preserves
// both availability and failure frequency for arbitrary down sets.
func TestEquivalentRatesPreserveMeasures(t *testing.T) {
	t.Parallel()
	f := func(seed int64, mask uint16) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := randomIrreducibleModel(r)
		if err != nil {
			return false
		}
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			return false
		}
		down := make([]bool, m.NumStates())
		var nDown int
		var pDown float64
		for i := range down {
			if mask&(1<<uint(i)) != 0 {
				down[i] = true
				nDown++
				pDown += pi[i]
			}
		}
		// Need a proper bipartition.
		if nDown == 0 || nDown == m.NumStates() {
			return true
		}
		if pDown == 0 {
			// Unreachable down set can't happen in an irreducible chain.
			return false
		}
		freq := m.EntryFrequency(pi, down)
		la, mu, err := EquivalentRatesFrom(pDown, freq)
		if err != nil {
			return false
		}
		// Reduced chain availability: μ/(λ+μ) == 1 − pDown.
		if math.Abs(mu/(la+mu)-(1-pDown)) > 1e-9 {
			return false
		}
		// Reduced chain failure frequency: (1−pDown)·λ == entry frequency.
		return math.Abs((1-pDown)*la-freq) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestTransientMatchesSteadyStateFrequencies: simulate-free sanity — the
// transient distribution at a long horizon reproduces every steady-state
// probability, not just availability.
func TestTransientMatchesSteadyStateEverywhere(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := randomIrreducibleModel(r)
		if err != nil {
			return false
		}
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			return false
		}
		p0 := make([]float64, m.NumStates())
		p0[0] = 1
		pt, err := m.Transient(p0, 500, TransientOptions{})
		if err != nil {
			return false
		}
		for i := range pi {
			if math.Abs(pt[i]-pi[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestIntervalAvailabilityBetweenInstantAndSteady: starting from an up
// state with 0/1 rewards, interval availability lies between the
// steady-state availability and 1, and is monotone nonincreasing in t.
func TestIntervalAvailabilityBetweenInstantAndSteady(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, err := randomIrreducibleModel(r)
		if err != nil {
			return false
		}
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			return false
		}
		n := m.NumStates()
		reward := make([]float64, n)
		reward[0] = 1 // state 0 is the only "up" state
		p0 := make([]float64, n)
		p0[0] = 1
		prev := 1.0
		for _, horizon := range []float64{0.1, 1, 10, 100} {
			ia, err := m.IntervalAvailability(p0, horizon, reward)
			if err != nil {
				return false
			}
			if ia > prev+1e-9 || ia < pi[0]-1e-9 {
				return false
			}
			prev = ia
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
