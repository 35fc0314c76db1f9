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
	// MethodAuto picks the dense method for small chains and
	// Gauss–Seidel above the dense threshold.
	MethodAuto Method = iota + 1
	// MethodDense solves the chain directly by GTH state reduction.
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
// from the dense GTH reduction (direct and entrywise accurate; at most
// O(n³), far less on chains that stay sparse under elimination) to
// iterative sweeps. Availability chains are stiff (rates spanning
// 1e-7..1e4 per hour), which slows iterative convergence, so the direct
// solver is preferred well past the point where it would win on flop
// count alone.
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
	// sparse.ErrNoConvergence. The dense path is not interruptible
	// mid-reduction; it only checks the context up front (dense chains
	// are small by construction, see denseThreshold).
	Ctx context.Context
	// Tol/MaxIter are forwarded to the iterative solvers.
	Tol     float64
	MaxIter int
	// Solver, if non-nil, supplies the reusable solve context — scratch
	// vectors and the dense reduction's storage — for repeated solves
	// (sweeps, Monte-Carlo, hierarchies). It never changes the
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
	// MethodAuto retried with the dense solver.
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
	obsDenseFallback = obs.C("ctmc_dense_fallback_total", "iterative solves that fell back to the dense solver")
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

// solveDense computes the stationary distribution of the n-state chain
// with the given merged transitions into pi by GTH (Grassmann–Taksar–
// Heyman) state reduction. States are eliminated from the last to the
// first: eliminating state k reroutes every path through k, adding
// q_ik·q_kj/s_k to q_ij for i, j < k, where s_k = Σ_{j<k} q_kj is k's
// total rate to the states still present. Back-substitution then gives
// π_k = Σ_{i<k} π_i·q_ik / s_k from π_0 = 1, and a final normalization.
//
// The reduction only adds, multiplies and divides non-negative numbers —
// it never subtracts — so π ≥ 0 and every entry, however tiny, carries
// full relative precision; no pivoting is needed. It skips zeros: each step reads row k's nonzero
// pattern once and updates only the rows with q_ik ≠ 0, so a chain whose
// generator stays sparse under elimination costs far less than n³/3. A
// zero s_k means the chain is reducible. A non-nil Solver supplies the
// rate matrix and pattern storage, so repeated solves allocate nothing.
func solveDense(s *Solver, n int, transitions []Transition, pi []float64) error {
	q, cols := s.denseScratch(n)
	for _, tr := range transitions {
		q[int(tr.From)*n+int(tr.To)] += tr.Rate
	}
	for k := n - 1; k > 0; k-- {
		rowK := q[k*n : k*n+k]
		cols = cols[:0]
		var sum float64
		for j, v := range rowK {
			if v != 0 {
				cols = append(cols, j)
				sum += v
			}
		}
		if sum == 0 {
			return fmt.Errorf("state %d cannot reach the states before it: %w", k, ErrNotIrreducible)
		}
		// The diagonal is never read as a rate: it keeps s_k for the
		// back-substitution.
		q[k*n+k] = sum
		for i := 0; i < k; i++ {
			f := q[i*n+k]
			if f == 0 {
				continue
			}
			f /= sum
			rowI := q[i*n : i*n+k]
			for _, j := range cols {
				rowI[j] += f * rowK[j]
			}
		}
	}
	// π_k accumulates π_i·q_ik row by row, so the reads run along rows.
	clear(pi)
	pi[0] = 1
	for i := 0; i < n; i++ {
		if i > 0 {
			pi[i] /= q[i*n+i]
		}
		p := pi[i]
		for k, v := range q[i*n+i+1 : i*n+n] {
			pi[i+1+k] += p * v
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
