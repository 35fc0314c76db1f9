package ctmc

import (
	"repro/internal/numeric"
	"repro/internal/sparse"
)

// Solver is a reusable steady-state solve context: scratch storage only.
// It owns the iterative solvers' scratch vectors (via sparse.Workspace)
// and the dense solver's assembly matrix and LU factorization storage.
//
// Sweeps, Monte-Carlo sampling, and hierarchical composition solve the
// same chain topologies over and over; threading one Solver through those
// repeated solves (SolveOptions.Solver) removes the per-solve allocations.
// Every solve overwrites the scratch it uses before reading it, so a
// result never depends on what the Solver solved before: a reused Solver
// gives the same bits as a fresh one.
//
// A Solver is NOT safe for concurrent use: give each worker goroutine its
// own (the jsas solvers maintain a pool; see also uncertainty.Run).
type Solver struct {
	ws sparse.Workspace

	// Dense-path scratch: the assembled system A = Qᵀ with the last row
	// replaced by ones, the rhs, the solution, and the factorization.
	denseA *numeric.Matrix
	denseB []float64
	denseX []float64
	lu     numeric.LU
}

// NewSolver returns an empty solve context.
func NewSolver() *Solver { return &Solver{} }

// SteadyState solves m's stationary distribution through this Solver's
// workspace — shorthand for m.SteadyState with opts.Solver set.
func (s *Solver) SteadyState(m *Model, opts SolveOptions) ([]float64, error) {
	opts.Solver = s
	return m.SteadyState(opts)
}

// denseScratch returns the Solver-owned (or, for a nil Solver, freshly
// allocated) dense assembly buffers sized for an n-state chain.
func (s *Solver) denseScratch(n int) (a *numeric.Matrix, b, x []float64, lu *numeric.LU) {
	if s == nil {
		return numeric.NewMatrix(n, n), make([]float64, n), make([]float64, n), &numeric.LU{}
	}
	if s.denseA == nil {
		s.denseA = numeric.NewMatrix(n, n)
	} else {
		s.denseA.Reshape(n, n)
	}
	if cap(s.denseB) < n {
		s.denseB = make([]float64, n)
		s.denseX = make([]float64, n)
	}
	s.denseB = s.denseB[:n]
	for i := range s.denseB {
		s.denseB[i] = 0
	}
	s.denseX = s.denseX[:n]
	return s.denseA, s.denseB, s.denseX, &s.lu
}

// workspace returns the sparse iteration workspace (nil for a nil Solver,
// which makes the sparse solvers allocate locally).
func (s *Solver) workspace() *sparse.Workspace {
	if s == nil {
		return nil
	}
	return &s.ws
}
