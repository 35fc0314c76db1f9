package sensitivity

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSweepWithParallelismIsBitIdentical compares serial and parallel
// drives of the same solver: the returned points must match bit for bit at
// every parallelism level, since points are written by index.
func TestSweepWithParallelismIsBitIdentical(t *testing.T) {
	t.Parallel()
	solve := func(v float64) (float64, float64, error) {
		a := 1 - 1e-5*v*v
		return a, (1 - a) * 525600, nil
	}
	want, err := SweepWith(context.Background(), 0.5, 3, 40, solve, SweepOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 64} {
		got, err := SweepWith(context.Background(), 0.5, 3, 40, solve, SweepOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if len(got) != len(want) {
			t.Fatalf("parallelism %d: %d points, want %d", par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: point %d = %+v, want %+v", par, i, got[i], want[i])
			}
		}
	}
}

// TestSweepWithReportsLowestIndexedFailure fails several sweep points and
// checks the error reported is always the lowest-indexed one, regardless
// of which worker hit its failure first.
func TestSweepWithReportsLowestIndexedFailure(t *testing.T) {
	t.Parallel()
	// Values for steps=20 over [0,20] are 0,1,...,20; fail at 7, 13, 19.
	solve := func(v float64) (float64, float64, error) {
		switch v {
		case 7, 13, 19:
			return 0, 0, fmt.Errorf("boom at %g", v)
		}
		return 0.99999, 5, nil
	}
	for _, par := range []int{1, 3, 8} {
		_, err := SweepWith(context.Background(), 0, 20, 20, solve, SweepOptions{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d: expected failure", par)
		}
		if !strings.Contains(err.Error(), "sweep at 7") || !strings.Contains(err.Error(), "boom at 7") {
			t.Fatalf("parallelism %d: err = %v, want the failure at value 7", par, err)
		}
	}
}

// TestSweepDelegatesToSweepWith keeps the legacy entry point honest: Sweep
// and a serial SweepWith must agree exactly, including validation errors.
func TestSweepDelegatesToSweepWith(t *testing.T) {
	t.Parallel()
	solve := func(v float64) (float64, float64, error) { return 1 - v*1e-6, v, nil }
	a, err := Sweep(1, 2, 4, solve)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepWith(context.Background(), 1, 2, 4, solve, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d: %+v != %+v", i, a[i], b[i])
		}
	}
	if _, err := SweepWith(context.Background(), 0, 1, 0, solve, SweepOptions{Parallelism: 4}); !errors.Is(err, ErrBadSweep) {
		t.Fatalf("validation not applied: %v", err)
	}
}
