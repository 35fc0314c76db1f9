package jsas

import (
	"math"
	"sync"
	"testing"

	"repro/internal/ctmc"
)

// TestConcurrentSolvesWithPerWorkerSolvers runs one-shot Solve calls —
// each compiling its own plan on a solver borrowed from the shared
// sync.Pool — and samples of one shared UncertaintySolver, whose workers
// borrow pooled workspaces, from many goroutines at once. Every result
// must equal its serial value. Meant to run under -race.
func TestConcurrentSolvesWithPerWorkerSolvers(t *testing.T) {
	p := DefaultParams()
	want, err := Solve(Config1, p)
	if err != nil {
		t.Fatal(err)
	}
	sample := UncertaintySolver(Config2, p)
	assignment := map[string]float64{ParamASFailures: 30, ParamTstartLong: 1.5}
	wantSample, err := sample(assignment)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 10; rep++ {
				if rep%2 == 0 {
					res, err := Solve(Config1, p)
					if err != nil {
						t.Errorf("worker %d rep %d: %v", w, rep, err)
						return
					}
					if res.Availability != want.Availability {
						t.Errorf("worker %d rep %d: Solve availability %v, want %v", w, rep, res.Availability, want.Availability)
						return
					}
				} else if got, err := sample(assignment); err != nil || math.Float64bits(got) != math.Float64bits(wantSample) {
					t.Errorf("worker %d rep %d: sample downtime %v (err %v), want %v", w, rep, got, err, wantSample)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPooledSolverStartsCold: a Solver borrowed from the pool carries
// nothing from its last borrower that can change a result, so an
// iteratively solved chain gets the same bits whatever the pool solved
// before. The 7-instance quorum product has 2,187 states, above the dense
// threshold, so ctmc.AutoMethod sends it to Gauss–Seidel.
func TestPooledSolverStartsCold(t *testing.T) {
	st, err := ClusterProduct(DefaultParams(), ClusterQuorum{Instances: 7, Quorum: 4})
	if err != nil {
		t.Fatal(err)
	}
	var d ctmc.Diagnostics
	gs := ctmc.SolveOptions{Diag: &d}
	s := solverPool.Get().(*ctmc.Solver)
	want, err := s.SteadyState(st.Model(), gs)
	if err != nil {
		t.Fatal(err)
	}
	if d.Method != ctmc.MethodGaussSeidel || d.DenseFallback {
		t.Fatalf("solved by %v (fallback %v), want gauss-seidel", d.Method, d.DenseFallback)
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
