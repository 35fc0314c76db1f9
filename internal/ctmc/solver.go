package ctmc

import "repro/internal/sparse"

// Solver is a reusable steady-state solve context: scratch storage only.
// It owns Gauss–Seidel's scratch vectors (via sparse.Workspace)
// and the dense solver's rate matrix and column-pattern storage.
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

	// Dense-path scratch: the n×n off-diagonal rates, row-major, reduced
	// in place by state reduction, and the nonzero columns of the row
	// being eliminated.
	dense []float64
	cols  []int
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
// allocated) dense buffers for an n-state chain: a zeroed n×n matrix and
// an empty column list with capacity n.
func (s *Solver) denseScratch(n int) (q []float64, cols []int) {
	if s == nil {
		return make([]float64, n*n), make([]int, 0, n)
	}
	if cap(s.dense) < n*n {
		s.dense = make([]float64, n*n)
	} else {
		s.dense = s.dense[:n*n]
		clear(s.dense)
	}
	if cap(s.cols) < n {
		s.cols = make([]int, 0, n)
	}
	return s.dense, s.cols[:0]
}

// workspace returns the sparse iteration workspace (nil for a nil Solver,
// which makes the sparse solvers allocate locally).
func (s *Solver) workspace() *sparse.Workspace {
	if s == nil {
		return nil
	}
	return &s.ws
}
