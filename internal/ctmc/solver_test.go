package ctmc

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// stiffModel builds a birth–death availability-style chain with rates
// spanning several orders of magnitude, large enough that nothing about it
// is special-cased by the auto method selection.
func stiffModel(t *testing.T, scale float64) *Model {
	t.Helper()
	b := NewBuilder()
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	states := make([]State, len(names))
	for i, n := range names {
		states[i] = b.State(n)
	}
	birth := []float64{2e-5, 1e-4, 3e-3, 0.5}
	death := []float64{4, 90, 2, 600}
	for i := 0; i < len(names)-1; i++ {
		b.Transition(states[i], states[i+1], birth[i]*scale)
		b.Transition(states[i+1], states[i], death[i])
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSparseGeneratorCached checks the generator CSR and its transpose are
// assembled once and shared across calls on the immutable model.
func TestSparseGeneratorCached(t *testing.T) {
	m := stiffModel(t, 1)
	q1, err := m.SparseGenerator()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := m.SparseGenerator()
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("SparseGenerator returned distinct objects; want the cached instance")
	}
	qt1, err := m.SparseGeneratorTransposed()
	if err != nil {
		t.Fatal(err)
	}
	qt2, err := m.SparseGeneratorTransposed()
	if err != nil {
		t.Fatal(err)
	}
	if qt1 != qt2 {
		t.Error("SparseGeneratorTransposed returned distinct objects; want the cached instance")
	}
	// The cached transpose must actually be the transpose.
	n := m.NumStates()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if q1.At(i, j) != qt1.At(j, i) {
				t.Fatalf("cached transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

// solveGS runs the unexported Gauss–Seidel path through s, whatever the
// chain's size.
func solveGS(s *Solver, m *Model) ([]float64, error) {
	var iter sparse.IterStats
	return m.steadyStateGS(SolveOptions{Solver: s}, &iter)
}

// TestReusedSolverMatchesFresh: a Solver holds scratch storage only, so a
// Gauss–Seidel solve through a Solver reused after any same-shape solve
// gives the same bits as a fresh Solver.
func TestReusedSolverMatchesFresh(t *testing.T) {
	want, err := solveGS(NewSolver(), stiffModel(t, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	for _, before := range []Method{MethodDense, MethodGaussSeidel} {
		s := NewSolver()
		if before == MethodDense {
			_, err = s.SteadyState(stiffModel(t, 1), SolveOptions{})
		} else {
			_, err = solveGS(s, stiffModel(t, 1))
		}
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveGS(s, stiffModel(t, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("after a same-shape %v solve: π[%d] = %v, fresh Solver gave %v",
					before, i, got[i], want[i])
			}
		}
	}
}

// TestSolverDensePathMatchesOneShot runs repeated dense solves through one
// Solver (reusing assembly and factorization storage) and checks
// bit-identical agreement with the allocation-per-solve path.
func TestSolverDensePathMatchesOneShot(t *testing.T) {
	s := NewSolver()
	for i := 0; i < 3; i++ {
		scale := 1 + 0.5*float64(i)
		m := stiffModel(t, scale)
		got, err := s.SteadyState(m, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := stiffModel(t, scale).SteadyState(SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("solve %d: dense reuse differs at %d: %g != %g", i, j, got[j], want[j])
			}
		}
	}
}

// TestResidualGaugeResetOnDense is the regression test for the stale-scrape
// bug: after an iterative solve set ctmc_last_solve_residual, a following
// dense solve must reset the gauge to 0 instead of leaving the previous
// iterative residual to be scraped alongside dense-solve diagnostics.
func TestResidualGaugeResetOnDense(t *testing.T) {
	gauge := obs.G("ctmc_last_solve_residual", "")
	if _, err := bigChain(t, denseThreshold+50).SteadyState(SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if gauge.Value() <= 0 {
		t.Fatalf("gauge = %g after iterative solve, want > 0", gauge.Value())
	}
	var d Diagnostics
	if _, err := stiffModel(t, 1).SteadyState(SolveOptions{Diag: &d}); err != nil {
		t.Fatal(err)
	}
	if gauge.Value() != 0 {
		t.Errorf("gauge = %g after dense solve, want 0 (stale residual)", gauge.Value())
	}
	if d.Residual != 0 {
		t.Errorf("dense diagnostics carry residual %g, want 0", d.Residual)
	}
}

// TestSolverPerWorkerConcurrency exercises one Solver per goroutine across
// overlapping solves — the documented concurrency contract — and is meant
// to run under -race. Shared state here is only the immutable models and
// their lazily cached generators.
func TestSolverPerWorkerConcurrency(t *testing.T) {
	models := []*Model{stiffModel(t, 1), stiffModel(t, 2), stiffModel(t, 3)}
	want := make([][]float64, len(models))
	for i, m := range models {
		pi, err := solveGS(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pi
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSolver()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(models)
				pi, err := solveGS(s, models[i])
				if err != nil {
					errs <- err
					return
				}
				for j := range pi {
					if diff := math.Abs(pi[j] - want[i][j]); diff > 1e-10 {
						t.Errorf("worker %d rep %d: pi[%d] off by %g", w, rep, j, diff)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
