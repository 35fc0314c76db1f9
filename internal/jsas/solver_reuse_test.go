package jsas

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/ctmc"
)

// TestWarmStartAgreesWithColdOnJSASChains sweeps a parameter across nearby
// values and solves the HADB node-pair submodel iteratively twice per
// point: cold (a fresh solve) and warm (through one shared Solver that
// carries the previous point's π). The stationary distributions must agree
// to solver tolerance — a stale warm-start seed may only cost sweeps,
// never move the answer. (The AS submodel is not used here: Gauss–Seidel
// does not converge on it at default tolerances, with or without warm
// starts, which is why the auto method solves those chains densely.)
func TestWarmStartAgreesWithColdOnJSASChains(t *testing.T) {
	s := ctmc.NewSolver()
	sawWarm := false
	for i := 0; i < 6; i++ {
		p := DefaultParams()
		p.HADBRestartLong = time.Duration(float64(15*time.Minute) * (1 + 0.2*float64(i)))
		st, err := BuildHADBPair(p)
		if err != nil {
			t.Fatal(err)
		}
		var warmDiag ctmc.Diagnostics
		warm, err := st.Model().SteadyState(ctmc.SolveOptions{
			Method: ctmc.MethodGaussSeidel, Solver: s, Diag: &warmDiag,
		})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := st.Model().SteadyState(ctmc.SolveOptions{Method: ctmc.MethodGaussSeidel})
		if err != nil {
			t.Fatal(err)
		}
		for j := range warm {
			if d := math.Abs(warm[j] - cold[j]); d > 1e-10 {
				t.Fatalf("point %d: warm and cold disagree at state %d by %g", i, j, d)
			}
		}
		if i > 0 && warmDiag.WarmStart {
			sawWarm = true
		}
	}
	if !sawWarm {
		t.Error("no solve after the first was warm-started; Solver cache not engaged")
	}
}

// TestSolveWithMatchesPooledSolve checks the pooled Solve front door and an
// explicit per-caller context produce bit-identical system results.
func TestSolveWithMatchesPooledSolve(t *testing.T) {
	p := DefaultParams()
	pooled, err := Solve(Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := SolveWith(Config1, p, ctmc.NewSolver())
	if err != nil {
		t.Fatal(err)
	}
	if pooled.Availability != explicit.Availability ||
		pooled.YearlyDowntimeMinutes != explicit.YearlyDowntimeMinutes ||
		pooled.MTBFHours != explicit.MTBFHours {
		t.Fatalf("pooled %+v != explicit %+v", pooled, explicit)
	}
}

// TestConcurrentSolvesWithPerWorkerSolvers runs full JSAS hierarchy solves
// from many goroutines, each with its own Solver (and, through Solve, the
// shared sync.Pool) — the contract concurrent Solve callers (server
// requests, a planSolver's fallback points) rely on. Meant to run under
// -race.
func TestConcurrentSolvesWithPerWorkerSolvers(t *testing.T) {
	p := DefaultParams()
	want, err := Solve(Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := ctmc.NewSolver()
			for rep := 0; rep < 10; rep++ {
				var res *SystemResult
				var err error
				if rep%2 == 0 {
					res, err = SolveWith(Config1, p, s)
				} else {
					res, err = Solve(Config1, p) // pooled path
				}
				if err != nil {
					errs <- err
					return
				}
				if res.Availability != want.Availability {
					t.Errorf("worker %d rep %d: availability %v != %v", w, rep, res.Availability, want.Availability)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPooledSolverStartsCold: a Solver borrowed from the pool carries no
// warm-start cache from its last borrower, so an iteratively solved chain
// (the AS cluster past the dense threshold, ≥ 19 instances) gets the same
// bits from Solve whatever the pool solved before.
func TestPooledSolverStartsCold(t *testing.T) {
	st, err := BuildHADBPair(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gs := ctmc.SolveOptions{Method: ctmc.MethodGaussSeidel}
	s := pooledSolver()
	want, err := s.SteadyState(st.Model(), gs)
	if err != nil {
		t.Fatal(err)
	}
	solverPool.Put(s)
	for i := 0; i < 3; i++ {
		s := pooledSolver()
		var d ctmc.Diagnostics
		got, err := s.SteadyState(st.Model(), ctmc.SolveOptions{Method: ctmc.MethodGaussSeidel, Diag: &d})
		if err != nil {
			t.Fatal(err)
		}
		solverPool.Put(s)
		if d.WarmStart {
			t.Fatalf("borrow %d: pooled Solver warm-started from an earlier borrower's π", i)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("borrow %d: π[%d] = %v, first borrow gave %v", i, j, got[j], want[j])
			}
		}
	}
}
