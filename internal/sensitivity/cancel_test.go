package sensitivity

import (
	"context"
	"errors"
	"testing"
)

// TestSweepWithCtxCanceled: a canceled sweep returns the cancellation,
// not a partial point set (a truncated curve would misread as a full
// sweep in downstream plots).
func TestSweepWithCtxCanceled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	solve := func(v float64) (float64, float64, error) { return 1 - v/100, v, nil }
	pts, err := SweepWith(ctx, 0, 1, 10, solve, SweepOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if pts != nil {
		t.Errorf("canceled sweep returned %d points; want none", len(pts))
	}
}

// TestSweepWithCtxLiveMatchesSweep: a live, cancelable context leaves the
// sweep byte-identical to Sweep's never-canceled one.
func TestSweepWithCtxLiveMatchesSweep(t *testing.T) {
	t.Parallel()
	solve := func(v float64) (float64, float64, error) { return 1 - v/100, v, nil }
	a, err := Sweep(0, 1, 8, solve)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := SweepWith(ctx, 0, 1, 8, solve, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
