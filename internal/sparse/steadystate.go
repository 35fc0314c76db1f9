package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// ErrNoConvergence is reported when an iterative solver exhausts its
// iteration budget before reaching the requested tolerance.
var ErrNoConvergence = errors.New("sparse: iteration limit reached without convergence")

// ctxCheckInterval is how many sweeps an iterative solver runs between
// cancellation checks. Sweeps are cheap relative to a whole solve, so a
// stuck (slowly converging) Gauss–Seidel loop notices a canceled context
// within a bounded, small amount of extra work; checking every sweep
// would put a synchronized channel load in the hot loop for nothing.
const ctxCheckInterval = 64

// checkCtx reports the context's error when it is canceled. A nil context
// never cancels. The returned error wraps context.Canceled (or
// DeadlineExceeded), NOT ErrNoConvergence: a canceled solve says nothing
// about convergence, and callers (MethodAuto's dense fallback, the HTTP
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

// SteadyStateOptions tunes the iterative steady-state solvers.
type SteadyStateOptions struct {
	// Ctx, if non-nil, is checked every ctxCheckInterval sweeps: a
	// canceled context aborts the solve with an error wrapping ctx.Err()
	// (distinct from ErrNoConvergence), so a stuck iteration is
	// interruptible. nil means "never cancel".
	Ctx context.Context
	// Tol is the convergence tolerance on the max-norm change of the
	// *normalized* probability vector between sweeps: a solver reports
	// convergence only when max_i |π_k[i] − π_{k−1}[i]| < Tol with both
	// iterates normalized to sum 1. The change is measured after
	// normalization, so Tol bounds the sweep-to-sweep movement of the
	// distribution actually returned (not of an intermediate unnormalized
	// iterate). Defaults to 1e-12.
	Tol float64
	// ResidualTol is the acceptance tolerance on the relative residual
	// ‖πQ‖∞ / Λ, where Λ is the largest exit rate of the chain. The
	// sweep-to-sweep diff alone can pass while the iterate is still far
	// from stationarity (e.g. slowly-converging stiff chains, heavily
	// under-relaxed sweeps), so a solver accepts only when BOTH the diff
	// and the residual tests hold; otherwise it keeps sweeping and reports
	// ErrNoConvergence at the iteration limit. Defaults to 1e-8.
	ResidualTol float64
	// MaxIter bounds the number of sweeps. Defaults to 200000.
	MaxIter int
	// Relax is the SOR relaxation factor for Gauss–Seidel (1 = plain GS).
	// Defaults to 1.
	Relax float64
	// Transposed, if non-nil, must be the transpose of the generator
	// passed to the solver; Gauss–Seidel then skips computing its own.
	// Callers solving one chain repeatedly (sweeps, Monte-Carlo) cache it
	// once (see ctmc.Model.SparseGeneratorTransposed).
	Transposed *CSR
	// Workspace, if non-nil, provides reusable scratch buffers so
	// repeated solves do not reallocate. Not safe for concurrent use.
	Workspace *Workspace
	// Stats, if non-nil, receives iteration diagnostics: the solvers
	// record the sweep count and final residual there on both success and
	// ErrNoConvergence exhaustion.
	Stats *IterStats
}

// IterStats reports how an iterative solve actually ran.
type IterStats struct {
	// Sweeps is the number of completed sweeps (matrix passes).
	Sweeps int
	// FinalDiff is the max-norm change of the normalized iterate over the
	// last sweep — the quantity compared against Tol.
	FinalDiff float64
	// Residual is the final ‖πQ‖∞ — the true balance-equation residual
	// verified against ResidualTol·Λ before a solve is accepted. It is
	// recorded on success and on ErrNoConvergence exhaustion.
	Residual float64
}

func (o SteadyStateOptions) withDefaults() SteadyStateOptions {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.ResidualTol <= 0 {
		o.ResidualTol = 1e-8
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Relax <= 0 {
		o.Relax = 1
	}
	return o
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

// SteadyStatePower computes the stationary distribution π of the CTMC with
// generator Q (π·Q = 0, Σπ = 1) by power iteration on the uniformized DTMC
// P = I + Q/Λ, where Λ exceeds the largest exit rate. Q must be a proper
// generator: nonnegative off-diagonals, rows summing to zero. The chain
// must be irreducible for the result to be the unique stationary vector.
func SteadyStatePower(q *CSR, opts SteadyStateOptions) ([]float64, error) {
	if q.Rows() != q.Cols() {
		return nil, fmt.Errorf("generator is %dx%d, want square: %w", q.Rows(), q.Cols(), ErrShape)
	}
	o := opts.withDefaults()
	n := q.Rows()
	if n == 0 {
		return nil, fmt.Errorf("empty generator: %w", ErrShape)
	}
	ws := o.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	ws.grow(n)
	// Uniformization constant: strictly above the max exit rate so the DTMC
	// is aperiodic even for deterministic-looking structures.
	var maxExit float64
	for i := 0; i < n; i++ {
		d := -q.At(i, i)
		if d > maxExit {
			maxExit = d
		}
	}
	if maxExit == 0 {
		// No transitions at all: every distribution is stationary; return uniform.
		pi := make([]float64, n)
		uniformIterate(pi)
		if o.Stats != nil {
			*o.Stats = IterStats{}
		}
		return pi, nil
	}
	lambda := maxExit * 1.05
	pi, next, scratch := ws.pi, ws.next, ws.scratch
	uniformIterate(pi)
	if o.Stats != nil {
		*o.Stats = IterStats{}
	}
	if err := checkCtx(o.Ctx, 0); err != nil {
		return nil, err
	}
	var resid float64
	for iter := 1; iter <= o.MaxIter; iter++ {
		if iter%ctxCheckInterval == 0 {
			if err := checkCtx(o.Ctx, iter-1); err != nil {
				return nil, err
			}
		}
		// next = pi·P = pi + (pi·Q)/Λ
		piQ, err := q.VecMul(pi, scratch)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v := pi[i] + piQ[i]/lambda
			if v < 0 {
				v = 0 // clamp tiny negative round-off
			}
			next[i] = v
		}
		// The convergence test compares normalized iterates: pi is already
		// normalized (from the previous sweep or the start), so diff
		// measures the movement of the returned distribution.
		normalizeInPlace(next)
		var diff float64
		for i := 0; i < n; i++ {
			if d := math.Abs(next[i] - pi[i]); d > diff {
				diff = d
			}
		}
		pi, next = next, pi
		if o.Stats != nil {
			o.Stats.Sweeps = iter
			o.Stats.FinalDiff = diff
		}
		if diff < o.Tol {
			// The diff alone can pass while the chain is still drifting;
			// accept only once the true residual confirms stationarity.
			resid = residualInf(q, pi, scratch)
			if o.Stats != nil {
				o.Stats.Residual = resid
			}
			if resid <= o.ResidualTol*maxExit {
				return append([]float64(nil), pi...), nil
			}
		}
	}
	resid = residualInf(q, pi, scratch)
	if o.Stats != nil {
		o.Stats.Residual = resid
	}
	return nil, fmt.Errorf("power iteration after %d sweeps (residual %.3g): %w", o.MaxIter, resid, ErrNoConvergence)
}

// SteadyStateGaussSeidel computes the stationary distribution of generator Q
// by Gauss–Seidel (optionally SOR) sweeps on the balance equations
// πQ = 0 rewritten per-state as π_j = Σ_{i≠j} π_i q_ij / (−q_jj).
// It operates on the transposed generator for column access; pass
// Options.Transposed to reuse a cached Qᵀ across repeated solves.
func SteadyStateGaussSeidel(q *CSR, opts SteadyStateOptions) ([]float64, error) {
	if q.Rows() != q.Cols() {
		return nil, fmt.Errorf("generator is %dx%d, want square: %w", q.Rows(), q.Cols(), ErrShape)
	}
	o := opts.withDefaults()
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
	for iter := 1; iter <= o.MaxIter; iter++ {
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
			v = pi[j] + o.Relax*(v-pi[j])
			if v < 0 {
				v = 0
			}
			pi[j] = v
		}
		normalizeInPlace(pi)
		// Convergence is judged on the normalized iterates (prev was left
		// normalized by the previous sweep), so Tol bounds the change of
		// the distribution actually returned. Measuring the raw in-sweep
		// updates instead would apply Tol to an unnormalized vector whose
		// scale drifts with the chain's structure.
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
		if diff < o.Tol {
			// The sweep-to-sweep diff is necessary but not sufficient: an
			// under-relaxed or slowly-converging sweep can move less than
			// Tol per sweep while ‖πQ‖∞ is still large. Accept only when
			// the true residual confirms the balance equations hold.
			resid = residualInf(q, pi, scratch)
			if o.Stats != nil {
				o.Stats.Residual = resid
			}
			if maxExit == 0 || resid <= o.ResidualTol*maxExit {
				return append([]float64(nil), pi...), nil
			}
		}
	}
	resid = residualInf(q, pi, scratch)
	if o.Stats != nil {
		o.Stats.Residual = resid
	}
	return nil, fmt.Errorf("gauss-seidel after %d sweeps (residual %.3g): %w", o.MaxIter, resid, ErrNoConvergence)
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
