package ctmc

import (
	"repro/internal/numeric"
	"repro/internal/sparse"
)

// Solver is a reusable steady-state solve context: it owns the iterative
// solvers' scratch vectors (via sparse.Workspace), the dense solver's
// assembly matrix and LU factorization storage, and a warm-start cache of
// recently computed stationary distributions keyed by chain shape.
//
// Sweeps, Monte-Carlo sampling, and hierarchical composition solve the
// same chain topologies over and over at nearby rates; threading one
// Solver through those repeated solves (SolveOptions.Solver) removes the
// per-solve allocations and lets the iterative methods start from the
// previous point's π instead of the uniform vector, which typically cuts
// the sweep count by an order of magnitude once the sweep is underway.
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

	// warm caches the most recent stationary distribution per chain
	// shape. Rate changes between nearby sweep points do not change the
	// shape, so (states, transitions) identifies "the same topology" for
	// warm-start purposes; a stale or mismatched seed only costs extra
	// sweeps, never correctness, because it is just the iteration's
	// starting point.
	warm map[warmKey][]float64

	stats SolverStats
}

// warmKey identifies a chain topology for the warm-start cache.
type warmKey struct{ states, transitions int }

// maxWarmEntries bounds the warm cache. A solve context touches only a
// handful of distinct topologies (the submodels of one hierarchy), so the
// bound exists purely to keep a long-lived Solver from accumulating
// vectors for chains it will never see again.
const maxWarmEntries = 16

// SolverStats aggregates how a Solver's solves ran, separating warm- from
// cold-started iterative work so the benefit of warm starting is
// observable (cold solves start from the uniform vector).
type SolverStats struct {
	// Solves counts completed steady-state solves through this Solver.
	Solves int
	// WarmStarts counts iterative solves seeded from a cached π.
	WarmStarts int
	// ColdSweeps and WarmSweeps total the iterative sweep counts of
	// cold- and warm-started solves respectively.
	ColdSweeps int
	WarmSweeps int
}

// NewSolver returns an empty solve context.
func NewSolver() *Solver {
	return &Solver{warm: make(map[warmKey][]float64)}
}

// Stats returns the cumulative solve statistics.
func (s *Solver) Stats() SolverStats { return s.stats }

// SteadyState solves m's stationary distribution through this Solver's
// workspace — shorthand for m.SteadyState with opts.Solver set.
func (s *Solver) SteadyState(m *Model, opts SolveOptions) ([]float64, error) {
	opts.Solver = s
	return m.SteadyState(opts)
}

// warmStart returns the cached stationary distribution for m's topology,
// or nil when none is cached.
func (s *Solver) warmStart(m *Model) []float64 {
	if s == nil {
		return nil
	}
	return s.warm[warmKey{m.NumStates(), m.NumTransitions()}]
}

// noteSolve records a completed solve and, when an iterative method
// produced it, caches its π for warm-starting the next solve of a
// same-shaped chain. A dense solve never reads the cache, so it does not
// write it either: a later iterative solve of the same shape must not
// start from wherever the dense path last left off.
func (s *Solver) noteSolve(m *Model, pi []float64, method Method, iter sparse.IterStats) {
	if s == nil {
		return
	}
	s.stats.Solves++
	if iter.WarmStart {
		s.stats.WarmStarts++
		s.stats.WarmSweeps += iter.Sweeps
	} else {
		s.stats.ColdSweeps += iter.Sweeps
	}
	if method == MethodDense {
		return
	}
	key := warmKey{m.NumStates(), m.NumTransitions()}
	dst, ok := s.warm[key]
	if !ok {
		if len(s.warm) >= maxWarmEntries {
			for k := range s.warm {
				delete(s.warm, k)
			}
		}
		dst = make([]float64, len(pi))
	}
	copy(dst, pi)
	s.warm[key] = dst
}

// ForgetWarmStarts empties the warm-start cache, so the next iterative
// solve of every chain shape starts cold from the uniform vector. A
// Solver shared across unrelated callers (a pool) forgets between them:
// otherwise an iterative solve's last bits depend on which chain the
// Solver happened to solve before.
func (s *Solver) ForgetWarmStarts() {
	clear(s.warm)
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
