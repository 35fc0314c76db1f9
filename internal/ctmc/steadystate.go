package ctmc

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Method selects a steady-state solution algorithm.
type Method int

// Available steady-state methods.
const (
	// MethodAuto picks dense LU for small chains and Gauss–Seidel above
	// the dense threshold.
	MethodAuto Method = iota + 1
	// MethodDense solves the balance equations directly by LU.
	MethodDense
	// MethodGaussSeidel iterates Gauss–Seidel sweeps on the sparse
	// balance equations.
	MethodGaussSeidel
	// MethodPower runs power iteration on the uniformized DTMC.
	MethodPower
)

func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodDense:
		return "dense"
	case MethodGaussSeidel:
		return "gauss-seidel"
	case MethodPower:
		return "power"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// denseThreshold is the state-count crossover where MethodAuto switches
// from dense LU (O(n³) but cache-friendly and exact) to iterative sweeps.
// Availability chains are stiff (rates spanning 1e-7..1e4 per hour), which
// slows iterative convergence, so the direct solver is preferred well past
// the point where it would win on flop count alone.
const denseThreshold = 1200

// AutoMethod is the method MethodAuto picks for an n-state chain (before
// any dense fallback).
func AutoMethod(n int) Method {
	if n <= denseThreshold {
		return MethodDense
	}
	return MethodGaussSeidel
}

// denseFallbackLimit bounds the state count for which MethodAuto retries
// a failed iterative solve with the dense solver.
const denseFallbackLimit = 4000

// SolveOptions configures SteadyState.
type SolveOptions struct {
	Method Method
	// Ctx, if non-nil, makes the solve cancelable: it is checked before
	// the solve starts and every few sweeps inside the iterative solvers,
	// so a stuck Gauss–Seidel loop aborts promptly with an error wrapping
	// context.Canceled (or DeadlineExceeded) — distinct from
	// sparse.ErrNoConvergence. The dense LU path is not interruptible
	// mid-factorization; it only checks the context up front (dense
	// chains are small by construction, see denseThreshold).
	Ctx context.Context
	// Tol/MaxIter are forwarded to the iterative solvers.
	Tol     float64
	MaxIter int
	// Solver, if non-nil, supplies the reusable solve context — scratch
	// vectors and dense assembly/factorization storage — for repeated
	// solves (sweeps, Monte-Carlo, hierarchies). It never changes the
	// result: a reused Solver gives the same bits as a fresh one.
	// A Solver is not safe for concurrent use: share one per worker, not
	// per run. A nil Solver allocates per solve (the one-shot path).
	Solver *Solver
	// Diag, if non-nil, receives a record of how the solve actually ran:
	// the method finally used, iteration counts, the dense fallback, and
	// wall time. It is filled on success and on failure.
	Diag *Diagnostics
}

// Diagnostics reports what a steady-state solve actually did — the
// observability needed to trust (and reproduce) the numbers: MethodAuto's
// silent choices and fallbacks become visible here and in the obs
// registry.
type Diagnostics struct {
	// Method is the algorithm that produced the returned vector (after
	// any auto selection or dense fallback).
	Method Method
	// States is the chain size.
	States int
	// Iterations is the sweep count of the iterative solver (0 for a
	// purely dense solve). After a dense fallback it retains the sweeps
	// the failed iterative attempt consumed.
	Iterations int
	// FinalDiff is the iterative solver's last max-norm sweep-to-sweep
	// change of the normalized iterate (0 for a purely dense solve).
	FinalDiff float64
	// Residual is the verified balance-equation residual ‖πQ‖∞ of the
	// returned iterative solve. It is 0 when the result came from the
	// dense solver (including after a dense fallback): the dense path is
	// direct, so no iterative residual describes the returned vector.
	Residual float64
	// DenseFallback marks that Gauss–Seidel failed to converge and
	// MethodAuto retried with the dense LU solver.
	DenseFallback bool
	// Wall is the total solve wall time, including any fallback.
	Wall time.Duration
}

// String renders a one-line summary for CLI --stats reports.
func (d Diagnostics) String() string {
	s := fmt.Sprintf("method=%v states=%d wall=%v", d.Method, d.States, d.Wall)
	if d.Iterations > 0 {
		s += fmt.Sprintf(" sweeps=%d final-diff=%.3g", d.Iterations, d.FinalDiff)
	}
	if d.Residual > 0 {
		s += fmt.Sprintf(" residual=%.3g", d.Residual)
	}
	if d.DenseFallback {
		s += " dense-fallback=true"
	}
	return s
}

// Solver metrics, reported to the default obs registry.
var (
	obsSolveSeconds  = obs.H("ctmc_solve_seconds", "steady-state solve wall time", obs.DurationBuckets)
	obsSolveIters    = obs.H("ctmc_solve_iterations", "iterative solver sweeps per solve", obs.IterationBuckets)
	obsDenseFallback = obs.C("ctmc_dense_fallback_total", "iterative solves that fell back to dense LU")
	obsSolveErrors   = obs.C("ctmc_solve_errors_total", "steady-state solves that returned an error")
	obsLastStates    = obs.G("ctmc_last_solve_states", "state count of the most recent solve")
	obsLastResidual  = obs.G("ctmc_last_solve_residual", "verified residual ‖πQ‖∞ of the most recent solve (0 after a dense solve)")
	obsCancellations = obs.C("solver_cancellations_total",
		"engine runs aborted by context cancellation", `layer="ctmc"`)
)

// obsSolvesByMethod pre-resolves the per-method solve counters so the hot
// solve path does not format a label per call.
var obsSolvesByMethod = map[Method]*obs.Counter{
	MethodDense:       newSolvesCounter(MethodDense),
	MethodGaussSeidel: newSolvesCounter(MethodGaussSeidel),
	MethodPower:       newSolvesCounter(MethodPower),
}

func newSolvesCounter(m Method) *obs.Counter {
	return obs.C("ctmc_solves_total", "completed steady-state solves by method",
		fmt.Sprintf("method=%q", m))
}

// obsSolvesTotal counts completed solves by the method that produced the
// result.
func obsSolvesTotal(m Method) *obs.Counter {
	if c, ok := obsSolvesByMethod[m]; ok {
		return c
	}
	return newSolvesCounter(m)
}

// SteadyState computes the stationary distribution π with π·Q = 0, Σπ = 1.
// The chain must be irreducible.
func (m *Model) SteadyState(opts SolveOptions) ([]float64, error) {
	if m.NumStates() == 0 {
		return nil, fmt.Errorf("empty model: %w", ErrBadModel)
	}
	if !m.IsIrreducible() {
		return nil, fmt.Errorf("steady state undefined: %w", ErrNotIrreducible)
	}
	if opts.Ctx != nil {
		if err := opts.Ctx.Err(); err != nil {
			obsCancellations.Inc()
			return nil, fmt.Errorf("steady state canceled: %w", err)
		}
	}
	timer := obs.StartTimer(obsSolveSeconds)
	span := trace.Default().Start("ctmc.solve", nil,
		trace.String(trace.AttrTrack, "solver"),
		trace.Int("states", int64(m.NumStates())))
	method := opts.Method
	auto := method == 0 || method == MethodAuto
	if auto {
		method = AutoMethod(m.NumStates())
	}
	var iter sparse.IterStats
	fellBack := false
	pi, err := m.steadyStateBy(method, opts, &iter)
	if err != nil && auto && method == MethodGaussSeidel &&
		errors.Is(err, sparse.ErrNoConvergence) && m.NumStates() <= denseFallbackLimit {
		// Stiff chain defeated the iterative solver; fall back to the
		// exact direct solve while it is still affordable.
		fellBack = true
		method = MethodDense
		obsDenseFallback.Inc()
		pi, err = m.steadyStateDense(opts.Solver)
	}
	wall := timer.Stop()
	span.Attr(
		trace.String("method", method.String()),
		trace.Int("iterations", int64(iter.Sweeps)),
		trace.Bool("error", err != nil))
	span.End()
	// A dense-produced result has no iterative residual: report 0 so the
	// diagnostics (and the gauge below) never show a stale value from an
	// earlier or abandoned iterative attempt next to a dense solve.
	residual := iter.Residual
	if method == MethodDense {
		residual = 0
	}
	if opts.Diag != nil {
		*opts.Diag = Diagnostics{
			Method:        method,
			States:        m.NumStates(),
			Iterations:    iter.Sweeps,
			FinalDiff:     iter.FinalDiff,
			Residual:      residual,
			DenseFallback: fellBack,
			Wall:          wall,
		}
	}
	obsLastStates.Set(float64(m.NumStates()))
	if iter.Sweeps > 0 {
		obsSolveIters.Observe(float64(iter.Sweeps))
	}
	obsLastResidual.Set(residual)
	if err != nil {
		obsSolveErrors.Inc()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			obsCancellations.Inc()
		}
		return pi, err
	}
	obsSolvesTotal(method).Inc()
	return pi, nil
}

func (m *Model) steadyStateBy(method Method, opts SolveOptions, iter *sparse.IterStats) ([]float64, error) {
	s := opts.Solver
	switch method {
	case MethodDense:
		return m.steadyStateDense(s)
	case MethodGaussSeidel:
		q, err := m.SparseGenerator()
		if err != nil {
			return nil, err
		}
		qt, err := m.SparseGeneratorTransposed()
		if err != nil {
			return nil, err
		}
		pi, err := sparse.SteadyStateGaussSeidel(q, sparse.SteadyStateOptions{
			Ctx:        opts.Ctx,
			Tol:        opts.Tol,
			MaxIter:    opts.MaxIter,
			Stats:      iter,
			Transposed: qt,
			Workspace:  s.workspace(),
		})
		if err != nil {
			return nil, fmt.Errorf("steady state: %w", err)
		}
		return pi, nil
	case MethodPower:
		q, err := m.SparseGenerator()
		if err != nil {
			return nil, err
		}
		pi, err := sparse.SteadyStatePower(q, sparse.SteadyStateOptions{
			Ctx:       opts.Ctx,
			Tol:       opts.Tol,
			MaxIter:   opts.MaxIter,
			Stats:     iter,
			Workspace: s.workspace(),
		})
		if err != nil {
			return nil, fmt.Errorf("steady state: %w", err)
		}
		return pi, nil
	default:
		return nil, fmt.Errorf("unknown method %v: %w", method, ErrBadModel)
	}
}

// steadyStateDense solves m by the dense method into a fresh vector.
func (m *Model) steadyStateDense(s *Solver) ([]float64, error) {
	pi := make([]float64, m.NumStates())
	if err := solveDense(s, len(pi), m.transitions, pi); err != nil {
		return nil, err
	}
	return pi, nil
}

// solveDense solves Qᵀπᵀ = 0 for the n-state chain with the given merged
// transitions, with the normalization Σπ = 1 replacing the last
// (redundant) balance equation, into pi. A non-nil Solver supplies the
// assembly and factorization storage so repeated solves allocate nothing.
func solveDense(s *Solver, n int, transitions []Transition, pi []float64) error {
	a, b, x, lu := s.denseScratch(n)
	// Assemble A = Qᵀ directly from the transition list — no intermediate
	// dense Q. Entries landing on row n−1 are overwritten below when that
	// (redundant) balance row becomes the normalization row.
	for _, tr := range transitions {
		a.Add(int(tr.To), int(tr.From), tr.Rate)
		a.Add(int(tr.From), int(tr.From), -tr.Rate)
	}
	for j := 0; j < n; j++ {
		a.Set(n-1, j, 1)
	}
	b[n-1] = 1
	if err := lu.FactorFrom(a); err != nil {
		if errors.Is(err, numeric.ErrSingular) {
			return fmt.Errorf("balance equations singular: %w", ErrNotIrreducible)
		}
		return fmt.Errorf("steady state: %w", err)
	}
	if err := lu.SolveInto(x, b); err != nil {
		return fmt.Errorf("steady state: %w", err)
	}
	copy(pi, x)
	// Round-off can leave tiny negatives on near-degenerate chains.
	for i := range pi {
		if pi[i] < 0 && pi[i] > -1e-12 {
			pi[i] = 0
		}
	}
	numeric.Normalize(pi)
	if !numeric.AllFinite(pi) {
		return fmt.Errorf("steady state produced non-finite probabilities: %w", ErrNotIrreducible)
	}
	return nil
}

// ProbabilityOf sums π over the given states.
func ProbabilityOf(pi []float64, states []State) float64 {
	var p float64
	for _, s := range states {
		if int(s) >= 0 && int(s) < len(pi) {
			p += pi[s]
		}
	}
	return p
}

// EntryFrequency returns the steady-state frequency (events per unit time)
// of transitions that enter the target set from outside it: Σ_{i∉T, j∈T}
// π_i·q_ij. For availability models this is the system failure frequency
// when T is the set of down states.
func (m *Model) EntryFrequency(pi []float64, target map[State]bool) float64 {
	var f float64
	for _, tr := range m.transitions {
		if !target[tr.From] && target[tr.To] {
			f += pi[tr.From] * tr.Rate
		}
	}
	return f
}

// ExitFrequency returns the steady-state frequency of transitions leaving
// the target set: Σ_{i∈T, j∉T} π_i·q_ij. In steady state this equals
// EntryFrequency for the same set (flow balance).
func (m *Model) ExitFrequency(pi []float64, target map[State]bool) float64 {
	var f float64
	for _, tr := range m.transitions {
		if target[tr.From] && !target[tr.To] {
			f += pi[tr.From] * tr.Rate
		}
	}
	return f
}
