package sparse

import (
	"errors"
	"math"
	"testing"
)

// birthDeath builds the generator of a birth–death chain with the given
// per-state birth (up) and death (down) rates. Its stationary vector has
// the closed form π_{i+1}/π_i = birth[i]/death[i].
func birthDeath(t *testing.T, birth, death []float64) *CSR {
	t.Helper()
	n := len(birth) + 1
	var entries []Entry
	for i := 0; i < n-1; i++ {
		entries = append(entries,
			Entry{Row: i, Col: i + 1, Val: birth[i]},
			Entry{Row: i, Col: i, Val: -birth[i]},
			Entry{Row: i + 1, Col: i, Val: death[i]},
			Entry{Row: i + 1, Col: i + 1, Val: -death[i]},
		)
	}
	q, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// birthDeathExact returns the analytic stationary vector of birthDeath.
func birthDeathExact(birth, death []float64) []float64 {
	n := len(birth) + 1
	pi := make([]float64, n)
	pi[0] = 1
	for i := 0; i < n-1; i++ {
		pi[i+1] = pi[i] * birth[i] / death[i]
	}
	normalizeInPlace(pi)
	return pi
}

// stiffChain is a birth–death chain with rates spanning seven orders of
// magnitude — the shape of availability models (failure rates ~1e-5/h,
// repair rates ~1e2/h) where the in-sweep Gauss–Seidel updates and the
// normalized iterate differ by a large, drifting scale factor.
func stiffChain(t *testing.T) (*CSR, []float64) {
	birth := []float64{2e-5, 1e-4, 3e-3, 0.5}
	death := []float64{4, 90, 2, 600}
	return birthDeath(t, birth, death), birthDeathExact(birth, death)
}

// TestGaussSeidelTolAppliesToNormalizedIterate is the regression test for
// the convergence bug where the tolerance was checked against the raw
// in-sweep updates before normalization: on a stiff chain the solver
// could report convergence while the normalized distribution was still
// moving. After the fix, a solve that reports success at tolerance Tol
// must return a vector within a small multiple of Tol of the exact
// stationary distribution, and the recorded final diff must honor the
// tolerance on the normalized iterates.
func TestGaussSeidelTolAppliesToNormalizedIterate(t *testing.T) {
	q, exact := stiffChain(t)
	var st IterStats
	const tol = diffTol
	pi, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range pi {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("returned vector sums to %g, want 1", sum)
	}
	if st.Sweeps <= 0 {
		t.Fatalf("stats not recorded: %+v", st)
	}
	if st.FinalDiff >= tol {
		t.Fatalf("reported convergence with final diff %g >= tol %g", st.FinalDiff, tol)
	}
	for i := range pi {
		if d := math.Abs(pi[i] - exact[i]); d > 1e-8 {
			t.Fatalf("pi[%d] = %g, exact %g (|Δ| = %g)", i, pi[i], exact[i], d)
		}
	}
	// One extra sweep from the converged point must move the normalized
	// vector by less than tol — i.e. the tolerance measured what it
	// claims to.
	prev := append([]float64(nil), pi...)
	var st2 IterStats
	pi2, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Stats: &st2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range pi2 {
		if d := math.Abs(pi2[i] - prev[i]); d > 10*tol {
			t.Fatalf("re-solve moved pi[%d] by %g, want < %g", i, d, 10*tol)
		}
	}
}

// TestNoConvergenceStillReportsStats exhausts the iteration budget and
// checks the exhausted-solve diagnostics are still recorded.
func TestNoConvergenceStillReportsStats(t *testing.T) {
	q, _ := stiffChain(t)
	var st IterStats
	_, err := gaussSeidel(q, SteadyStateOptions{Stats: &st},
		limits{diffTol: 0, residualTol: residualTol, maxSweeps: 7})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
	if st.Sweeps != 7 || st.FinalDiff <= 0 {
		t.Fatalf("stats = %+v, want 7 sweeps and a positive final diff", st)
	}
}
