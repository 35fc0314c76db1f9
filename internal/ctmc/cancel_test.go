package ctmc

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/sparse"
)

// afterNCtx cancels after a fixed number of Err() calls — deterministic
// mid-solve cancellation independent of convergence speed.
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

// bigChain builds a birth–death chain wide enough that AutoMethod picks
// Gauss–Seidel (NumStates > denseThreshold), so the dense-fallback path is
// reachable.
func bigChain(t *testing.T, states int) *Model {
	t.Helper()
	b := NewBuilder()
	ids := make([]State, states)
	for i := range ids {
		ids[i] = b.State(fmt.Sprintf("s%d", i))
	}
	for i := 0; i < states-1; i++ {
		b.Transition(ids[i], ids[i+1], 1e-4)
		b.Transition(ids[i+1], ids[i], 10)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSteadyStateCanceledUpFront: a pre-canceled context aborts the solve
// before any work and bumps the cancellation counter.
func TestSteadyStateCanceledUpFront(t *testing.T) {
	m := stiffModel(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := obsCancellations.Value()
	_, err := m.SteadyState(SolveOptions{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := obsCancellations.Value(); got < before+1 {
		t.Errorf("solver_cancellations_total did not move: %d -> %d", before, got)
	}
}

// TestSteadyStateCancellationSkipsDenseFallback: SteadyState's dense
// fallback is keyed on non-convergence; a solve canceled mid-iteration
// must surface the cancellation instead of silently retrying with the
// dense solver (which would turn a cheap abort into an expensive solve).
func TestSteadyStateCancellationSkipsDenseFallback(t *testing.T) {
	m := bigChain(t, denseThreshold+50)
	ctx := &afterNCtx{Context: context.Background(), after: 2}
	var d Diagnostics
	_, err := m.SteadyState(SolveOptions{Ctx: ctx, Diag: &d})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, sparse.ErrNoConvergence) {
		t.Error("cancellation reported as non-convergence")
	}
	if d.DenseFallback {
		t.Error("cancellation triggered the dense fallback")
	}
}

// TestSteadyStateCompletesWithLiveCtx: a context that stays live changes
// nothing about the result.
func TestSteadyStateCompletesWithLiveCtx(t *testing.T) {
	m := stiffModel(t, 1)
	want, err := m.SteadyState(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.SteadyState(SolveOptions{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("pi[%d] differs with a live ctx: %g vs %g", i, got[i], want[i])
		}
	}
}
