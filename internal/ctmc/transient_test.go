package ctmc

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTransientTwoStateClosedForm(t *testing.T) {
	t.Parallel()
	// p_up(t) = μ/(λ+μ) + λ/(λ+μ)·e^{-(λ+μ)t} starting from Up.
	const lambda, mu = 1.5, 4.0
	m, up, _ := twoState(t, lambda, mu)
	p0 := []float64{0, 0}
	p0[up] = 1
	for _, tm := range []float64{0, 0.01, 0.1, 0.5, 1, 3, 10} {
		pt, err := m.Transient(p0, tm, TransientOptions{})
		if err != nil {
			t.Fatalf("Transient(%v): %v", tm, err)
		}
		want := mu/(lambda+mu) + lambda/(lambda+mu)*math.Exp(-(lambda+mu)*tm)
		if math.Abs(pt[up]-want) > 1e-9 {
			t.Errorf("p_up(%v) = %v, want %v", tm, pt[up], want)
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	s0, s1, s2 := b.State("0"), b.State("1"), b.State("2")
	b.Transition(s0, s1, 1)
	b.Transition(s1, s2, 2)
	b.Transition(s2, s0, 3)
	b.Transition(s1, s0, 0.5)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pi, err := m.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatalf("SteadyState: %v", err)
	}
	pt, err := m.Transient([]float64{1, 0, 0}, 200, TransientOptions{})
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	for i := range pi {
		if math.Abs(pt[i]-pi[i]) > 1e-8 {
			t.Errorf("pt[%d] = %v, steady %v", i, pt[i], pi[i])
		}
	}
}

func TestTransientAbsorbing(t *testing.T) {
	t.Parallel()
	// Pure death chain: A → B at rate r; p_A(t) = e^{-rt}.
	b := NewBuilder()
	a, bb := b.State("A"), b.State("B")
	b.Transition(a, bb, 2)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	pt, err := m.Transient([]float64{1, 0}, 1.5, TransientOptions{})
	if err != nil {
		t.Fatalf("Transient: %v", err)
	}
	want := math.Exp(-2 * 1.5)
	if math.Abs(pt[0]-want) > 1e-9 {
		t.Errorf("p_A(1.5) = %v, want %v", pt[0], want)
	}
}

func TestTransientValidation(t *testing.T) {
	t.Parallel()
	m, _, _ := twoState(t, 1, 1)
	if _, err := m.Transient([]float64{1}, 1, TransientOptions{}); !errors.Is(err, ErrBadModel) {
		t.Errorf("short p0: err = %v, want ErrBadModel", err)
	}
	if _, err := m.Transient([]float64{1, 0}, -1, TransientOptions{}); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative t: err = %v, want ErrBadModel", err)
	}
}

func TestTransientNoTransitions(t *testing.T) {
	t.Parallel()
	b := NewBuilder()
	b.State("only")
	b.State("other")
	b.Transition(b.State("only"), b.State("other"), 1)
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// t=0 must return p0 exactly.
	pt, err := m.Transient([]float64{0.25, 0.75}, 0, TransientOptions{})
	if err != nil {
		t.Fatalf("Transient(0): %v", err)
	}
	if pt[0] != 0.25 || pt[1] != 0.75 {
		t.Errorf("Transient(0) = %v, want p0", pt)
	}
}

// TestTransientProbabilityVector: transient solutions remain probability
// vectors (nonnegative, sum 1) for random chains and times.
func TestTransientProbabilityVector(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		b := NewBuilder()
		states := make([]State, n)
		for i := 0; i < n; i++ {
			states[i] = b.State(string(rune('A' + i)))
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && r.Float64() < 0.6 {
					b.Transition(states[i], states[j], 0.1+3*r.Float64())
				}
			}
		}
		m, err := b.Build()
		if err != nil {
			return false
		}
		p0 := make([]float64, n)
		p0[r.Intn(n)] = 1
		pt, err := m.Transient(p0, 5*r.Float64(), TransientOptions{})
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pt {
			if v < -1e-12 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIntervalAvailability(t *testing.T) {
	t.Parallel()
	const lambda, mu = 1.0, 9.0
	m, up, _ := twoState(t, lambda, mu)
	p0 := make([]float64, 2)
	p0[up] = 1
	reward := make([]float64, 2)
	reward[up] = 1
	// Closed form: (1/t)∫ p_up = A_ss + (1-A_ss)·(1-e^{-(λ+μ)t})/((λ+μ)t)
	ass := mu / (lambda + mu)
	for _, tm := range []float64{0.1, 1, 5, 1000} {
		got, err := m.IntervalAvailability(p0, tm, reward)
		if err != nil {
			t.Fatalf("IntervalAvailability: %v", err)
		}
		s := lambda + mu
		want := ass + (1-ass)*(1-math.Exp(-s*tm))/(s*tm)
		if math.Abs(got-want) > 1e-8 {
			t.Errorf("IA(%v) = %v, want %v", tm, got, want)
		}
	}
	// t=0 degenerates to instantaneous reward.
	got, err := m.IntervalAvailability(p0, 0, reward)
	if err != nil {
		t.Fatalf("IntervalAvailability(0): %v", err)
	}
	if got != 1 {
		t.Errorf("IA(0) = %v, want 1", got)
	}
	// Validation.
	if _, err := m.IntervalAvailability([]float64{1}, 1, reward); !errors.Is(err, ErrBadModel) {
		t.Errorf("short p0: err = %v", err)
	}
	if _, err := m.IntervalAvailability(p0, -1, reward); !errors.Is(err, ErrBadModel) {
		t.Errorf("negative t: err = %v", err)
	}
}
