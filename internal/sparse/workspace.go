package sparse

// Workspace owns the scratch vectors Gauss–Seidel sweeps over (the
// iterate, the previous iterate, the matrix-product scratch, and the
// diagonal cache). Passing one via
// SteadyStateOptions.Workspace lets repeated solves — parametric sweeps,
// Monte-Carlo sampling, hierarchical re-evaluation — reuse the buffers
// instead of allocating four vectors per solve.
//
// A Workspace is not safe for concurrent use: give each worker goroutine
// its own (see ctmc.Solver, which wraps one per solve context).
type Workspace struct {
	pi, prev, scratch, diag []float64
}

// grow sizes every buffer to n, reallocating only when capacity is
// exceeded. Contents are unspecified afterwards; the solver overwrites
// each buffer before reading it.
func (w *Workspace) grow(n int) {
	w.pi = growVec(w.pi, n)
	w.prev = growVec(w.prev, n)
	w.scratch = growVec(w.scratch, n)
	w.diag = growVec(w.diag, n)
}

func growVec(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}
