package jsas

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ctmc"
)

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

// TestPooledSolverStartsCold: a Solver borrowed from the pool carries
// nothing from its last borrower that can change a result, so an
// iteratively solved chain gets the same bits whatever the pool solved
// before.
func TestPooledSolverStartsCold(t *testing.T) {
	st, err := BuildHADBPair(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	gs := ctmc.SolveOptions{Method: ctmc.MethodGaussSeidel}
	s := solverPool.Get().(*ctmc.Solver)
	want, err := s.SteadyState(st.Model(), gs)
	if err != nil {
		t.Fatal(err)
	}
	solverPool.Put(s)
	for i := 0; i < 3; i++ {
		s := solverPool.Get().(*ctmc.Solver)
		got, err := s.SteadyState(st.Model(), gs)
		if err != nil {
			t.Fatal(err)
		}
		solverPool.Put(s)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("borrow %d: π[%d] = %v, first borrow gave %v", i, j, got[j], want[j])
			}
		}
	}
}
