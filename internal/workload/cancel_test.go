package workload

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/jsas"
)

// afterNCtx cancels after a fixed number of Err() calls — Run checks
// once per simulation chunk, so this pins the cancellation to a chunk
// boundary deterministically.
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

func shortRunOptions(seed int64) RunOptions {
	return RunOptions{
		Config:   jsas.Config1,
		Params:   jsas.DefaultParams(),
		Profile:  Marketplace(),
		Duration: 6 * time.Hour,
		Seed:     seed,
	}
}

// TestRunCtxCanceledBeforeStart: a pre-canceled run does no simulation
// and returns no Result (a truncated exposure window would weaken the
// Equation (2) bound silently).
func TestRunCtxCanceledBeforeStart(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(ctx, shortRunOptions(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled run returned a Result; want nil")
	}
}

// TestRunCtxCanceledMidRun: cancellation lands at a chunk boundary and
// the error reports how far the virtual clock got.
func TestRunCtxCanceledMidRun(t *testing.T) {
	t.Parallel()
	ctx := &afterNCtx{Context: context.Background(), after: 3}
	res, err := Run(ctx, shortRunOptions(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("canceled run returned a Result; want nil")
	}
	if !strings.Contains(err.Error(), "canceled at") {
		t.Errorf("error %q does not report the virtual-clock position", err)
	}
}

// TestRunCtxLiveMatchesRun: the chunked advance introduced for
// cancellation must be invisible to the physics — same seed, same
// counts under a never-canceled and a live, cancelable context.
func TestRunCtxLiveMatchesRun(t *testing.T) {
	t.Parallel()
	a, err := Run(context.Background(), shortRunOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := Run(ctx, shortRunOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.RequestsServed != b.RequestsServed || a.Availability != b.Availability ||
		a.ASInstanceFailures != b.ASInstanceFailures {
		t.Errorf("Run with a live context diverged: %+v vs %+v", b, a)
	}
}

// TestRunSeriesWithCtxCanceled: a canceled series still pools its
// completed runs (the partial-series contract) and surfaces the
// cancellation.
func TestRunSeriesWithCtxCanceled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunSeriesWith(ctx, SeriesOptions{
		Run:  shortRunOptions(1),
		Runs: 3,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
