package sparse

import (
	"context"
	"errors"
	"testing"
)

// afterNCtx is a context whose Err flips to Canceled after a fixed number
// of Err() calls — a deterministic stand-in for "canceled mid-solve" that
// does not depend on iteration speed. The solver is single-goroutine,
// so the plain counter is safe.
type afterNCtx struct {
	context.Context
	calls, after int
}

func (c *afterNCtx) Err() error {
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestSteadyStateCanceledUpFront: a pre-canceled context aborts the solver
// before any sweeps, with an error wrapping context.Canceled — and NOT
// ErrNoConvergence, so dense fallbacks keyed on non-convergence never fire
// on a cancel.
func TestSteadyStateCanceledUpFront(t *testing.T) {
	t.Parallel()
	q, _ := stiffChain(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SteadyStateGaussSeidel(q, SteadyStateOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Error("cancellation reported as non-convergence")
	}
}

// TestSteadyStateCanceledMidIteration: a context canceled during the
// sweep loop stops the solver at the next check, again distinct from
// non-convergence.
func TestSteadyStateCanceledMidIteration(t *testing.T) {
	t.Parallel()
	q, _ := stiffChain(t)
	// after=1: the pre-loop check passes, the first in-loop check cancels.
	// The unreachable tolerances keep the solver sweeping past that check
	// regardless of how fast the small chain converges.
	ctx := &afterNCtx{Context: context.Background(), after: 1}
	_, err := gaussSeidel(q, SteadyStateOptions{Ctx: ctx},
		limits{diffTol: 0, residualTol: 0, maxSweeps: maxSweeps})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Error("mid-iteration cancellation reported as non-convergence")
	}
}

// TestSteadyStateNilCtx: no context means no cancellation checks and the
// solve completes as before.
func TestSteadyStateNilCtx(t *testing.T) {
	t.Parallel()
	q, want := stiffChain(t)
	pi, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if diff := pi[i] - want[i]; diff > 1e-8 || diff < -1e-8 {
			t.Fatalf("pi[%d] = %g, want %g", i, pi[i], want[i])
		}
	}
}
