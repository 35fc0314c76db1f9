package ctmc

import (
	"errors"
	"math"
	"testing"
)

// twoState builds the canonical repairable-component chain:
// Up --λ--> Down --μ--> Up with closed-form π = (μ, λ)/(λ+μ).
func twoState(t *testing.T, lambda, mu float64) (*Model, State, State) {
	t.Helper()
	b := NewBuilder()
	up := b.State("Up")
	down := b.State("Down")
	b.Transition(up, down, lambda)
	b.Transition(down, up, mu)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m, up, down
}

func TestBuilderBasics(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	a := b.State("A")
	if got := b.State("A"); got != a {
		t.Error("State(\"A\") twice returned different handles")
	}
	c := b.State("C")
	b.Transition(a, c, 1.5)
	b.Transition(a, c, 0.5) // parallel transitions merge
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.NumStates() != 2 || m.NumTransitions() != 1 {
		t.Fatalf("states=%d transitions=%d, want 2,1", m.NumStates(), m.NumTransitions())
	}
	if got := m.Rate(a, c); got != 2 {
		t.Errorf("merged rate = %v, want 2", got)
	}
	if got := m.ExitRate(a); got != 2 {
		t.Errorf("ExitRate = %v, want 2", got)
	}
	if m.Name(a) != "A" || m.Name(c) != "C" {
		t.Error("names wrong")
	}
	if m.Name(State(99)) == "" {
		t.Error("out-of-range Name should be diagnostic, not empty")
	}
	if s, err := m.StateByName("C"); err != nil || s != c {
		t.Errorf("StateByName(C) = %v, %v", s, err)
	}
	if _, err := m.StateByName("nope"); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("StateByName(nope) err = %v, want ErrNoSuchState", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Parallel()
	t.Run("negative rate", func(t *testing.T) {
		t.Parallel()
		b := NewBuilder()
		a, c := b.State("A"), b.State("C")
		b.Transition(a, c, -1)
		if _, err := b.Build(); !errors.Is(err, ErrBadModel) {
			t.Errorf("err = %v, want ErrBadModel", err)
		}
	})
	t.Run("self loop", func(t *testing.T) {
		t.Parallel()
		b := NewBuilder()
		a := b.State("A")
		b.Transition(a, a, 1)
		if _, err := b.Build(); !errors.Is(err, ErrBadModel) {
			t.Errorf("err = %v, want ErrBadModel", err)
		}
	})
	t.Run("unknown state", func(t *testing.T) {
		t.Parallel()
		b := NewBuilder()
		a := b.State("A")
		b.Transition(a, State(5), 1)
		if _, err := b.Build(); !errors.Is(err, ErrBadModel) {
			t.Errorf("err = %v, want ErrBadModel", err)
		}
	})
	t.Run("empty model", func(t *testing.T) {
		t.Parallel()
		if _, err := NewBuilder().Build(); !errors.Is(err, ErrBadModel) {
			t.Errorf("err = %v, want ErrBadModel", err)
		}
	})
	t.Run("zero rate dropped", func(t *testing.T) {
		t.Parallel()
		b := NewBuilder()
		a, c := b.State("A"), b.State("C")
		b.Transition(a, c, 0)
		b.Transition(a, c, 1)
		b.Transition(c, a, 1)
		m, err := b.Build()
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		if m.NumTransitions() != 2 {
			t.Errorf("transitions = %d, want 2", m.NumTransitions())
		}
	})
}

func TestGenerator(t *testing.T) {
	t.Parallel()
	m, up, down := twoState(t, 2, 5)
	q, err := m.SparseGenerator()
	if err != nil {
		t.Fatalf("SparseGenerator: %v", err)
	}
	if q.At(int(up), int(up)) != -2 || q.At(int(up), int(down)) != 2 {
		t.Errorf("row up = [%v %v], want [-2 2]", q.At(0, 0), q.At(0, 1))
	}
	if q.At(int(down), int(up)) != 5 || q.At(int(down), int(down)) != -5 {
		t.Errorf("row down = [%v %v], want [5 -5]", q.At(1, 0), q.At(1, 1))
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	t.Parallel()
	const lambda, mu = 3.0, 7.0
	m, up, down := twoState(t, lambda, mu)
	for name, solve := range map[string]func() ([]float64, error){
		"auto":         func() ([]float64, error) { return m.SteadyState(SolveOptions{}) },
		"dense":        func() ([]float64, error) { return m.steadyStateDense(nil) },
		"gauss-seidel": func() ([]float64, error) { return solveGS(nil, m) },
	} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			pi, err := solve()
			if err != nil {
				t.Fatal(err)
			}
			wantUp := mu / (lambda + mu)
			if math.Abs(pi[up]-wantUp) > 1e-9 {
				t.Errorf("pi[up] = %v, want %v", pi[up], wantUp)
			}
			if math.Abs(pi[down]-(1-wantUp)) > 1e-9 {
				t.Errorf("pi[down] = %v, want %v", pi[down], 1-wantUp)
			}
		})
	}
}

func TestSteadyStateNotIrreducible(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	a, c := b.State("A"), b.State("C")
	b.Transition(a, c, 1) // no way back
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if _, err := m.SteadyState(SolveOptions{}); !errors.Is(err, ErrNotIrreducible) {
		t.Errorf("err = %v, want ErrNotIrreducible", err)
	}
}

func TestIsIrreducible(t *testing.T) {
	t.Parallel()
	m, _, _ := twoState(t, 1, 1)
	if !m.IsIrreducible() {
		t.Error("two-state cycle reported reducible")
	}
	b := NewBuilder()
	a, c, d := b.State("A"), b.State("C"), b.State("D")
	b.Transition(a, c, 1)
	b.Transition(c, a, 1)
	b.Transition(a, d, 1) // D is a trap
	m2, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m2.IsIrreducible() {
		t.Error("chain with trap state reported irreducible")
	}
}

func TestReachable(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	a, c, d := b.State("A"), b.State("C"), b.State("D")
	b.Transition(a, c, 1)
	b.Transition(c, d, 1)
	b.Transition(d, c, 1)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	r := m.Reachable(a)
	if len(r) != 3 {
		t.Errorf("Reachable(A) = %d states, want 3", len(r))
	}
	r = m.Reachable(c)
	if len(r) != 2 || r[a] {
		t.Errorf("Reachable(C) wrong: %v", r)
	}
}

func TestEntryExitFrequency(t *testing.T) {
	t.Parallel()
	const lambda, mu = 3.0, 7.0
	m, _, down := twoState(t, lambda, mu)
	pi, err := m.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	downSet := make([]bool, m.NumStates())
	downSet[down] = true
	fIn := m.EntryFrequency(pi, downSet)
	fOut := m.ExitFrequency(pi, downSet)
	want := lambda * mu / (lambda + mu) // = pi_up * lambda
	if math.Abs(fIn-want) > 1e-9 {
		t.Errorf("EntryFrequency = %v, want %v", fIn, want)
	}
	// Flow balance: in == out in steady state.
	if math.Abs(fIn-fOut) > 1e-9 {
		t.Errorf("flow imbalance: in %v, out %v", fIn, fOut)
	}
}

func TestEquivalentRatesTwoStateIdentity(t *testing.T) {
	t.Parallel()
	// For a genuine two-state model, equivalent rates must recover the
	// original λ and μ exactly.
	const lambda, mu = 0.002, 4.0
	m, _, down := twoState(t, lambda, mu)
	pi, err := m.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	downSet := make([]bool, m.NumStates())
	downSet[down] = true
	le, me, err := EquivalentRatesFrom(pi[down], m.EntryFrequency(pi, downSet))
	if err != nil {
		t.Fatalf("EquivalentRates: %v", err)
	}
	if math.Abs(le-lambda) > 1e-9 {
		t.Errorf("lambda_eq = %v, want %v", le, lambda)
	}
	if math.Abs(me-mu) > 1e-9 {
		t.Errorf("mu_eq = %v, want %v", me, mu)
	}
}

func TestEquivalentRatesPreserveAvailability(t *testing.T) {
	t.Parallel()
	// A 4-state repair model reduced to 2 states must preserve
	// availability: A = μ/(λ+μ) for the reduced chain.
	b := NewBuilder()
	ok := b.State("Ok")
	deg := b.State("Degraded")
	down := b.State("Down")
	repair := b.State("Repair")
	b.Transition(ok, deg, 0.01)
	b.Transition(deg, ok, 2)
	b.Transition(deg, down, 0.05)
	b.Transition(ok, down, 0.001)
	b.Transition(down, repair, 10)
	b.Transition(repair, ok, 0.5)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pi, err := m.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	downSet := make([]bool, m.NumStates())
	downSet[down], downSet[repair] = true, true
	le, me, err := EquivalentRatesFrom(pi[down]+pi[repair], m.EntryFrequency(pi, downSet))
	if err != nil {
		t.Fatalf("EquivalentRates: %v", err)
	}
	fullAvail := pi[ok] + pi[deg]
	reducedAvail := me / (le + me)
	if math.Abs(fullAvail-reducedAvail) > 1e-12 {
		t.Errorf("availability not preserved: full %v, reduced %v", fullAvail, reducedAvail)
	}
}

func TestEquivalentRatesErrors(t *testing.T) {
	t.Parallel()
	// A chain that is down with probability 1 has no up macro-state.
	if _, _, err := EquivalentRatesFrom(1, 0); !errors.Is(err, ErrBadModel) {
		t.Errorf("P(down) = 1: err = %v, want ErrBadModel", err)
	}
	// A chain that is never down has no recovery rate.
	if la, mu, err := EquivalentRatesFrom(0, 0); err != nil || la != 0 || mu != 0 {
		t.Errorf("P(down) = 0: (%v, %v, %v), want (0, 0, nil)", la, mu, err)
	}
}

func TestTransitionsCopy(t *testing.T) {
	t.Parallel()
	m, _, _ := twoState(t, 1, 2)
	trs := m.Transitions()
	trs[0].Rate = 999
	if m.Transitions()[0].Rate == 999 {
		t.Error("Transitions() exposes internal storage")
	}
}

func TestStatesList(t *testing.T) {
	t.Parallel()
	m, _, _ := twoState(t, 1, 2)
	states := m.States()
	if len(states) != 2 || states[0] != 0 || states[1] != 1 {
		t.Errorf("States = %v", states)
	}
}
