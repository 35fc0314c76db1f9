package ctmc

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/gthref"
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

// TestSteadyStateMatchesReference solves random stiff chains of 2–40
// states — the same chains as TestDenseGaussSeidelDifferential — and
// requires every π entry, however tiny, to agree with a 256-bit GTH
// solve to 1e-12 relative. The residual check above bounds only the
// absolute error, which says nothing about an entry of 1e-20.
func TestSteadyStateMatchesReference(t *testing.T) {
	t.Parallel()
	const (
		trials = 300
		tol    = 1e-12
	)
	rng := rand.New(rand.NewSource(2004))
	var worst float64
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(39)
		m := randomIrreducible(t, rng, n)
		pi, err := m.SteadyState(SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d (%d states): %v", trial, n, err)
		}
		ref := make([]gthref.Transition, 0, m.NumTransitions())
		for _, tr := range m.Transitions() {
			ref = append(ref, gthref.Transition{From: int(tr.From), To: int(tr.To), Rate: tr.Rate})
		}
		want := gthref.Stationary(n, ref, 256)
		for i, p := range pi {
			diff := new(big.Float).Sub(new(big.Float).SetFloat64(p), want[i])
			rel, _ := diff.Quo(diff, want[i]).Float64()
			rel = math.Abs(rel)
			worst = math.Max(worst, rel)
			if rel > tol {
				w, _ := want[i].Float64()
				t.Fatalf("trial %d (%d states): π[%d] = %.17g, reference %.17g (relative error %.3g > %g)",
					trial, n, i, p, w, rel, tol)
			}
		}
	}
	t.Logf("worst relative error %.3g over %d chains", worst, trials)
}
