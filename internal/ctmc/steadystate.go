package ctmc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/obs"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Method names a steady-state solution algorithm: the one AutoMethod
// picks for a chain, and the one Diagnostics reports as having produced
// the result.
type Method int

// Steady-state methods.
const (
	// MethodDense solves the chain directly by GTH state reduction.
	MethodDense Method = iota + 1
	// MethodGaussSeidel iterates Gauss–Seidel sweeps on the sparse
	// balance equations.
	MethodGaussSeidel
)

func (m Method) String() string {
	switch m {
	case MethodDense:
		return "dense"
	case MethodGaussSeidel:
		return "gauss-seidel"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// denseThreshold is the state-count crossover where AutoMethod switches
// from the dense GTH reduction (direct and entrywise accurate; at most
// O(n³), far less on chains that stay sparse under elimination) to
// iterative sweeps. Availability chains are stiff (rates spanning
// 1e-7..1e4 per hour), which slows iterative convergence, so the direct
// solver is preferred well past the point where it would win on flop
// count alone.
const denseThreshold = 1200

// AutoMethod is the method SteadyState uses for an n-state chain (before
// any dense fallback).
func AutoMethod(n int) Method {
	if n <= denseThreshold {
		return MethodDense
	}
	return MethodGaussSeidel
}

// denseFallbackLimit bounds the state count for which SteadyState retries
// a failed iterative solve with the dense solver.
const denseFallbackLimit = 4000

// SolveOptions configures SteadyState.
type SolveOptions struct {
	// Ctx, if non-nil, makes the solve cancelable: it is checked before
	// the solve starts and every few sweeps inside Gauss–Seidel, so a
	// stuck iterative loop aborts promptly with an error wrapping
	// context.Canceled (or DeadlineExceeded) — distinct from
	// sparse.ErrNoConvergence. The dense path is not interruptible
	// mid-reduction; it only checks the context up front (dense chains
	// are small by construction, see denseThreshold). A span in Ctx
	// (trace.ContextWith) gets a ctmc.solve child; without one the
	// solve records no span.
	Ctx context.Context
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
// observability needed to trust (and reproduce) the numbers: AutoMethod's
// silent choices and fallbacks become visible here and in the obs
// registry.
type Diagnostics struct {
	// Method is the algorithm that produced the returned vector (after
	// any dense fallback).
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
	// SteadyState retried with the dense solver.
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

// obsSolvesTotal counts completed solves by the method that produced the
// result, pre-resolved so the hot solve path formats no label per call.
var obsSolvesTotal = map[Method]*obs.Counter{
	MethodDense:       newSolvesCounter(MethodDense),
	MethodGaussSeidel: newSolvesCounter(MethodGaussSeidel),
}

func newSolvesCounter(m Method) *obs.Counter {
	return obs.C("ctmc_solves_total", "completed steady-state solves by method",
		fmt.Sprintf("method=%q", m))
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
	span := trace.Child(opts.Ctx, "ctmc.solve", 4)
	method := AutoMethod(m.NumStates())
	var iter sparse.IterStats
	fellBack := false
	var pi []float64
	var err error
	if method == MethodDense {
		pi, err = m.steadyStateDense(opts.Solver)
	} else {
		pi, err = m.steadyStateGS(opts, &iter)
		if errors.Is(err, sparse.ErrNoConvergence) && m.NumStates() <= denseFallbackLimit {
			// Stiff chain defeated the iterative solver; fall back to the
			// exact direct solve while it is still affordable.
			fellBack = true
			method = MethodDense
			obsDenseFallback.Inc()
			pi, err = m.steadyStateDense(opts.Solver)
		}
	}
	wall := timer.Stop()
	if span != nil {
		span.Attr(
			trace.Int("states", int64(m.NumStates())),
			trace.String("method", method.String()),
			trace.Int("iterations", int64(iter.Sweeps)),
			trace.Bool("error", err != nil))
		span.End()
	}
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
	obsSolvesTotal[method].Inc()
	return pi, nil
}

// steadyStateGS solves m by Gauss–Seidel sweeps on its cached sparse
// generator, recording the sweep statistics into iter.
func (m *Model) steadyStateGS(opts SolveOptions, iter *sparse.IterStats) ([]float64, error) {
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
		Stats:      iter,
		Transposed: qt,
		Workspace:  opts.Solver.workspace(),
	})
	if err != nil {
		return nil, fmt.Errorf("steady state: %w", err)
	}
	return pi, nil
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
	normalize(pi)
	if !allFinite(pi) {
		return fmt.Errorf("steady state produced non-finite probabilities: %w", ErrNotIrreducible)
	}
	return nil
}

// normalize scales v in place so its elements sum to 1. A zero vector is
// left unchanged.
func normalize(v []float64) {
	var s float64
	for _, x := range v {
		s += x
	}
	if s == 0 {
		return
	}
	f := 1 / s
	for i := range v {
		v[i] *= f
	}
}

// allFinite reports whether every element of v is finite (no NaN/Inf).
func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// EntryFrequency returns the steady-state frequency (events per unit time)
// of transitions that enter the target set from outside it: Σ_{i∉T, j∈T}
// π_i·q_ij, the target set given as one flag per state. For availability
// models this is the system failure frequency when T is the set of down
// states.
func (m *Model) EntryFrequency(pi []float64, target []bool) float64 {
	return crossingFrequency(m.transitions, pi, target, false)
}

// ExitFrequency returns the steady-state frequency of transitions leaving
// the target set: Σ_{i∈T, j∉T} π_i·q_ij. In steady state this equals
// EntryFrequency for the same set (flow balance).
func (m *Model) ExitFrequency(pi []float64, target []bool) float64 {
	return crossingFrequency(m.transitions, pi, target, true)
}

// crossingFrequency sums π_i·q_ij, in transition order, over the
// transitions that cross the target set's boundary: those leaving it when
// leaving is set, else those entering it.
func crossingFrequency(transitions []Transition, pi []float64, target []bool, leaving bool) float64 {
	var f float64
	for _, tr := range transitions {
		if target[tr.From] == leaving && target[tr.To] != leaving {
			f += pi[tr.From] * tr.Rate
		}
	}
	return f
}

// EquivalentRatesFrom reduces a chain to a two-state (up, down)
// abstraction, the RAScad hierarchical-modeling primitive, from its
// steady-state down probability and failure frequency (the entry
// frequency of its down set):
//
//	λ_eq = freq / P(up)   (rate of leaving the up macro-state)
//	μ_eq = freq / P(down) (rate of leaving the down macro-state; 0 when P(down) = 0)
//
// so that a two-state chain with these rates has the same steady-state
// availability P(up) and the same failure frequency as the full model.
func EquivalentRatesFrom(pDown, freq float64) (lambdaEq, muEq float64, err error) {
	pUp := 1 - pDown
	if pUp <= 0 {
		return 0, 0, fmt.Errorf("no steady-state up probability: %w", ErrBadModel)
	}
	lambdaEq = freq / pUp
	if pDown > 0 {
		muEq = freq / pDown
	}
	return lambdaEq, muEq, nil
}
