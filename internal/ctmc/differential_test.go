package ctmc

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sparse"
)

// randomIrreducible builds an n-state chain whose rates are log-uniform
// over 1e-6..1e3: a random cycle through every state makes it
// irreducible, and about 2n further random transitions give it shortcuts.
func randomIrreducible(t *testing.T, rng *rand.Rand, n int) *Model {
	t.Helper()
	rate := func() float64 { return math.Pow(10, -6+9*rng.Float64()) }
	b := NewBuilder()
	ids := make([]State, n)
	for i := range ids {
		ids[i] = b.State(fmt.Sprintf("s%d", i))
	}
	perm := rng.Perm(n)
	for i := range perm {
		b.Transition(ids[perm[i]], ids[perm[(i+1)%n]], rate())
	}
	for k := 0; k < 2*n; k++ {
		if i, j := rng.Intn(n), rng.Intn(n); i != j {
			b.Transition(ids[i], ids[j], rate())
		}
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkStationary reports why pi is not a stationary distribution of m:
// Σπ = 1, π ≥ 0, and the relative residual ‖πQ‖∞ / Λ at most 1e-8, Λ being
// the largest exit rate.
func checkStationary(m *Model, pi []float64) error {
	var sum float64
	for i, p := range pi {
		if !(p >= 0) {
			return fmt.Errorf("π[%d] = %g", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		return fmt.Errorf("Σπ = %.17g", sum)
	}
	q, err := m.SparseGenerator()
	if err != nil {
		return err
	}
	piQ, err := q.VecMul(pi, nil)
	if err != nil {
		return err
	}
	var maxExit, resid float64
	for i := range pi {
		maxExit = math.Max(maxExit, -q.At(i, i))
		resid = math.Max(resid, math.Abs(piQ[i]))
	}
	if resid > 1e-8*maxExit {
		return fmt.Errorf("‖πQ‖∞ = %g > 1e-8·Λ = %g", resid, 1e-8*maxExit)
	}
	return nil
}

// TestDenseGaussSeidelDifferential solves a few hundred random stiff
// chains of 2–40 states both ways — SteadyState (dense GTH at these sizes)
// and the Gauss–Seidel path — and requires each answer to be stationary
// on its own and the two to agree entrywise within Gauss–Seidel's
// acceptance tolerance.
//
// Gauss–Seidel may refuse a chain: on a few of these it stalls or
// oscillates for its whole sweep budget, and its acceptance rule then
// reports sparse.ErrNoConvergence rather than a wrong vector (SteadyState
// falls back to the dense solve for such a chain). A refusal is not a
// disagreement, but refusals must stay rare or the differential shows
// nothing.
func TestDenseGaussSeidelDifferential(t *testing.T) {
	t.Parallel()
	const (
		trials      = 300
		agree       = 1e-8
		maxRefusals = 10
	)
	rng := rand.New(rand.NewSource(2004))
	refusals := 0
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(39)
		m := randomIrreducible(t, rng, n)
		var d Diagnostics
		dense, err := m.SteadyState(SolveOptions{Diag: &d})
		if err != nil || d.Method != MethodDense {
			t.Fatalf("trial %d (%d states): dense solve by %v: %v", trial, n, d.Method, err)
		}
		if err := checkStationary(m, dense); err != nil {
			t.Fatalf("trial %d (%d states): dense: %v", trial, n, err)
		}
		gs, err := solveGS(nil, m)
		if errors.Is(err, sparse.ErrNoConvergence) {
			refusals++
			continue
		}
		if err != nil {
			t.Fatalf("trial %d (%d states): gauss-seidel: %v", trial, n, err)
		}
		if err := checkStationary(m, gs); err != nil {
			t.Fatalf("trial %d (%d states): gauss-seidel: %v", trial, n, err)
		}
		for i := range dense {
			if diff := math.Abs(dense[i] - gs[i]); diff > agree {
				t.Fatalf("trial %d (%d states): π[%d] dense %.17g, gauss-seidel %.17g (|Δ| = %g)",
					trial, n, i, dense[i], gs[i], diff)
			}
		}
	}
	t.Logf("gauss-seidel refused %d of %d chains", refusals, trials)
	if refusals > maxRefusals {
		t.Errorf("gauss-seidel refused %d of %d chains, want at most %d", refusals, trials, maxRefusals)
	}
}
