package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is reported when Gauss–Seidel exhausts its sweep
// budget before its acceptance rule holds.
var ErrNoConvergence = errors.New("sparse: iteration limit reached without convergence")

// ctxCheckInterval is how many sweeps Gauss–Seidel runs between
// cancellation checks. Sweeps are cheap relative to a whole solve, so a
// stuck (slowly converging) Gauss–Seidel loop notices a canceled context
// within a bounded, small amount of extra work; checking every sweep
// would put a synchronized channel load in the hot loop for nothing.
const ctxCheckInterval = 64

// checkCtx reports the context's error when it is canceled. A nil context
// never cancels. The returned error wraps context.Canceled (or
// DeadlineExceeded), NOT ErrNoConvergence: a canceled solve says nothing
// about convergence, and callers (ctmc's dense fallback, the HTTP
// status mapper) must be able to tell the two apart with errors.Is.
func checkCtx(ctx context.Context, sweeps int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sparse: solve canceled after %d sweeps: %w", sweeps, err)
	}
	return nil
}

// Gauss–Seidel's acceptance rule. A solve is accepted when the max-norm
// change of the *normalized* iterate over one sweep falls below diffTol
// (so diffTol bounds the movement of the distribution actually returned,
// not of an intermediate unnormalized iterate) AND the relative residual
// ‖πQ‖∞ / Λ is at most residualTol, where Λ is the chain's largest exit
// rate. The diff alone can pass while the iterate is still far from
// stationarity (slowly converging stiff chains), so the residual decides.
// A solve that has not been accepted after maxSweeps sweeps reports
// ErrNoConvergence.
const (
	diffTol     = 1e-12
	residualTol = 1e-8
	maxSweeps   = 200000
)

// limits carries the acceptance rule into the solver loop.
// SteadyStateGaussSeidel always passes defaultLimits; the package's tests
// pass a smaller budget or looser tolerances to reach the exhaustion and
// rejection paths on small chains.
type limits struct {
	diffTol, residualTol float64
	maxSweeps            int
}

var defaultLimits = limits{diffTol: diffTol, residualTol: residualTol, maxSweeps: maxSweeps}

// SteadyStateOptions configures SteadyStateGaussSeidel.
type SteadyStateOptions struct {
	// Ctx, if non-nil, is checked every ctxCheckInterval sweeps: a
	// canceled context aborts the solve with an error wrapping ctx.Err()
	// (distinct from ErrNoConvergence), so a stuck iteration is
	// interruptible. nil means "never cancel".
	Ctx context.Context
	// Transposed, if non-nil, must be the transpose of the generator
	// passed to the solver; Gauss–Seidel then skips computing its own.
	// Callers solving one chain repeatedly (sweeps, Monte-Carlo) cache it
	// once (see ctmc.Model.SparseGeneratorTransposed).
	Transposed *CSR
	// Workspace, if non-nil, provides reusable scratch buffers so
	// repeated solves do not reallocate. Not safe for concurrent use.
	Workspace *Workspace
	// Stats, if non-nil, receives iteration diagnostics: the solver
	// records the sweep count and final residual there on both success
	// and ErrNoConvergence exhaustion.
	Stats *IterStats
}

// IterStats reports how an iterative solve actually ran.
type IterStats struct {
	// Sweeps is the number of completed sweeps (matrix passes).
	Sweeps int
	// FinalDiff is the max-norm change of the normalized iterate over the
	// last sweep — the quantity compared against diffTol.
	FinalDiff float64
	// Residual is the final ‖πQ‖∞ — the true balance-equation residual
	// verified against residualTol·Λ before a solve is accepted. It is
	// recorded on success and on ErrNoConvergence exhaustion.
	Residual float64
}

// uniformIterate fills pi with the uniform distribution.
func uniformIterate(pi []float64) {
	u := 1 / float64(len(pi))
	for i := range pi {
		pi[i] = u
	}
}

// residualInf computes the balance-equation residual ‖πQ‖∞ using scratch
// for the intermediate product.
func residualInf(q *CSR, pi, scratch []float64) float64 {
	out, err := q.VecMul(pi, scratch)
	if err != nil {
		// Unreachable: pi is sized to the (square) generator.
		panic(fmt.Sprintf("sparse: residual: %v", err))
	}
	var r float64
	for _, v := range out {
		if v < 0 {
			v = -v
		}
		if v > r {
			r = v
		}
	}
	return r
}

// SteadyStateGaussSeidel computes the stationary distribution of generator Q
// by Gauss–Seidel sweeps on the balance equations πQ = 0 rewritten
// per-state as π_j = Σ_{i≠j} π_i q_ij / (−q_jj). It operates on the
// transposed generator for column access; pass Options.Transposed to
// reuse a cached Qᵀ across repeated solves.
func SteadyStateGaussSeidel(q *CSR, opts SteadyStateOptions) ([]float64, error) {
	return gaussSeidel(q, opts, defaultLimits)
}

func gaussSeidel(q *CSR, o SteadyStateOptions, lim limits) ([]float64, error) {
	if q.Rows() != q.Cols() {
		return nil, fmt.Errorf("generator is %dx%d, want square: %w", q.Rows(), q.Cols(), ErrShape)
	}
	n := q.Rows()
	if n == 0 {
		return nil, fmt.Errorf("empty generator: %w", ErrShape)
	}
	qt := o.Transposed
	if qt == nil {
		qt = q.Transpose() // row j of qt holds incoming rates q_ij for state j
	} else if qt.Rows() != n || qt.Cols() != n {
		return nil, fmt.Errorf("transposed generator is %dx%d, want %dx%d: %w",
			qt.Rows(), qt.Cols(), n, n, ErrShape)
	}
	ws := o.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	ws.grow(n)
	diag := ws.diag
	var maxExit float64
	for j := 0; j < n; j++ {
		diag[j] = -q.At(j, j)
		if diag[j] > maxExit {
			maxExit = diag[j]
		}
	}
	pi, prev, scratch := ws.pi, ws.prev, ws.scratch
	uniformIterate(pi)
	if o.Stats != nil {
		*o.Stats = IterStats{}
	}
	if err := checkCtx(o.Ctx, 0); err != nil {
		return nil, err
	}
	var resid float64
	for iter := 1; iter <= lim.maxSweeps; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := checkCtx(o.Ctx, iter-1); err != nil {
				return nil, err
			}
		}
		copy(prev, pi)
		for j := 0; j < n; j++ {
			if diag[j] == 0 {
				continue // absorbing or isolated state: leave as-is
			}
			var in float64
			lo, hi := qt.rowPtr[j], qt.rowPtr[j+1]
			for k := lo; k < hi; k++ {
				i := qt.colIdx[k]
				if i == j {
					continue
				}
				in += pi[i] * qt.vals[k]
			}
			v := in / diag[j]
			if v < 0 {
				v = 0
			}
			pi[j] = v
		}
		normalizeInPlace(pi)
		// Convergence is judged on the normalized iterates (prev was left
		// normalized by the previous sweep), so diffTol bounds the change
		// of the distribution actually returned. Measuring the raw
		// in-sweep updates instead would apply it to an unnormalized
		// vector whose scale drifts with the chain's structure.
		var diff float64
		for i := 0; i < n; i++ {
			if d := math.Abs(pi[i] - prev[i]); d > diff {
				diff = d
			}
		}
		if o.Stats != nil {
			o.Stats.Sweeps = iter
			o.Stats.FinalDiff = diff
		}
		if diff < lim.diffTol {
			// The sweep-to-sweep diff is necessary but not sufficient: a
			// slowly converging sweep can move less than diffTol while
			// ‖πQ‖∞ is still large. Accept only when the true residual
			// confirms the balance equations hold.
			resid = residualInf(q, pi, scratch)
			if o.Stats != nil {
				o.Stats.Residual = resid
			}
			if maxExit == 0 || resid <= lim.residualTol*maxExit {
				return append([]float64(nil), pi...), nil
			}
		}
	}
	resid = residualInf(q, pi, scratch)
	if o.Stats != nil {
		o.Stats.Residual = resid
	}
	return nil, fmt.Errorf("gauss-seidel after %d sweeps (residual %.3g): %w", lim.maxSweeps, resid, ErrNoConvergence)
}

func normalizeInPlace(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	inv := 1 / s
	for i := range v {
		v[i] *= inv
	}
}
