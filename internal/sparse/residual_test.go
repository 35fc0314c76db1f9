package sparse

import (
	"errors"
	"math/rand"
	"testing"
)

// TestResidualRejectsPrematureDiffConvergence is the regression test for
// the acceptance bug where the sweep-to-sweep diff alone decided
// convergence and a far-from-stationary vector came back as "converged".
// A diff tolerance so loose that every sweep passes it stands in for a
// slowly converging sweep; with a budget too short for the balance
// equations to hold, the residual check must keep iterating and report
// ErrNoConvergence at the budget instead.
func TestResidualRejectsPrematureDiffConvergence(t *testing.T) {
	t.Parallel()
	q, _ := stiffChain(t)
	var st IterStats
	_, err := gaussSeidel(q, SteadyStateOptions{Stats: &st},
		limits{diffTol: 1, residualTol: residualTol, maxSweeps: 3})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("err = %v, want ErrNoConvergence (diff test alone must not accept)", err)
	}
	if st.FinalDiff >= 1 {
		t.Fatalf("final diff %g >= the diff tolerance; the premature-acceptance scenario did not materialize", st.FinalDiff)
	}
	if st.Residual <= 0 {
		t.Fatalf("stats = %+v, want a positive recorded residual", st)
	}
	if st.Sweeps != 3 {
		t.Fatalf("sweeps = %d, want the full budget of 3", st.Sweeps)
	}
}

// TestAcceptedSolveHasSmallResidual checks the complementary direction: a
// solve that is accepted must carry a verified residual within the
// acceptance bound relative to the chain's largest exit rate.
func TestAcceptedSolveHasSmallResidual(t *testing.T) {
	t.Parallel()
	q, _ := stiffChain(t)
	maxExit := 0.0
	for i := 0; i < q.Rows(); i++ {
		if d := -q.At(i, i); d > maxExit {
			maxExit = d
		}
	}
	var st IterStats
	if _, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Stats: &st}); err != nil {
		t.Fatal(err)
	}
	if st.Residual <= 0 || st.Residual > residualTol*maxExit {
		t.Fatalf("residual = %g, want in (0, %g]", st.Residual, residualTol*maxExit)
	}
}

// TestTransposedOptionMatchesInternal verifies that supplying a cached Qᵀ
// yields the exact result of letting Gauss–Seidel transpose internally,
// and that a wrong-shaped transpose is rejected.
func TestTransposedOptionMatchesInternal(t *testing.T) {
	t.Parallel()
	q, _ := stiffChain(t)
	want, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Transposed: q.Transpose()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pi[%d]: cached-transpose %g != internal %g", i, got[i], want[i])
		}
	}
	wrong, err := NewCSR(2, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Transposed: wrong}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape for mismatched transpose", err)
	}
}

// TestWorkspaceReuseKeepsResultsIdentical drives repeated solves through
// one Workspace and checks each returns a fresh vector bit-identical to a
// workspace-free solve — i.e. the scratch reuse never leaks state between
// solves or aliases returned slices.
func TestWorkspaceReuseKeepsResultsIdentical(t *testing.T) {
	t.Parallel()
	var ws Workspace
	rng := rand.New(rand.NewSource(7))
	var prev []float64
	for round := 0; round < 5; round++ {
		birth := []float64{2e-5 * (1 + rng.Float64()), 1e-4, 3e-3, 0.5}
		death := []float64{4, 90 * (1 + rng.Float64()), 2, 600}
		q := birthDeath(t, birth, death)
		want, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Workspace: &ws})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: workspace solve differs at %d: %g != %g", round, i, got[i], want[i])
			}
		}
		if prev != nil && &prev[0] == &got[0] {
			t.Fatal("workspace solve returned an aliased result slice")
		}
		prev = got
	}
}
