package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCSRBasic(t *testing.T) {
	t.Parallel()
	m, err := NewCSR(3, 3, []Entry{
		{0, 1, 2}, {1, 0, 3}, {2, 2, 4}, {0, 1, 1}, // duplicate (0,1) sums to 3
	})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3 (duplicates coalesced)", m.NNZ())
	}
	if got := m.At(0, 1); got != 3 {
		t.Errorf("At(0,1) = %v, want 3", got)
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %v, want 0", got)
	}
}

func TestNewCSROutOfRange(t *testing.T) {
	t.Parallel()
	if _, err := NewCSR(2, 2, []Entry{{2, 0, 1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
	if _, err := NewCSR(2, 2, []Entry{{0, -1, 1}}); !errors.Is(err, ErrShape) {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestCSREmptyRows(t *testing.T) {
	t.Parallel()
	// Row 0 and row 2 empty.
	m, err := NewCSR(3, 3, []Entry{{1, 1, 5}})
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	if m.At(0, 0) != 0 || m.At(1, 1) != 5 || m.At(2, 2) != 0 {
		t.Error("empty-row handling wrong")
	}
	if n0, n2 := m.rowPtr[1]-m.rowPtr[0], m.rowPtr[3]-m.rowPtr[2]; n0 != 0 || n2 != 0 {
		t.Errorf("empty rows store %d and %d entries", n0, n2)
	}
}

func TestCSRVecMul(t *testing.T) {
	t.Parallel()
	m, _ := NewCSR(2, 2, []Entry{{0, 0, 1}, {0, 1, 2}, {1, 0, 3}, {1, 1, 4}})
	y, err := m.VecMul([]float64{1, 10}, nil)
	if err != nil {
		t.Fatalf("VecMul: %v", err)
	}
	if y[0] != 31 || y[1] != 42 {
		t.Errorf("VecMul = %v, want [31 42]", y)
	}
	// Reuse of out buffer.
	y2, err := m.VecMul([]float64{1, 10}, y)
	if err != nil {
		t.Fatalf("VecMul(reuse): %v", err)
	}
	if y2[0] != 31 || y2[1] != 42 {
		t.Errorf("VecMul reuse = %v, want [31 42]", y2)
	}
}

func TestCSRTranspose(t *testing.T) {
	t.Parallel()
	m, _ := NewCSR(2, 3, []Entry{{0, 2, 7}, {1, 0, 5}})
	tr := m.Transpose()
	if tr.Rows() != 3 || tr.Cols() != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", tr.Rows(), tr.Cols())
	}
	if tr.At(2, 0) != 7 || tr.At(0, 1) != 5 {
		t.Error("transpose values wrong")
	}
}

// birthDeathGenerator returns the generator of a birth-death chain with
// birth rate b and death rate d on n states, whose stationary distribution
// is geometric: pi_i ∝ (b/d)^i.
func birthDeathGenerator(t *testing.T, n int, b, d float64) *CSR {
	t.Helper()
	var entries []Entry
	for i := 0; i < n; i++ {
		var exit float64
		if i < n-1 {
			entries = append(entries, Entry{i, i + 1, b})
			exit += b
		}
		if i > 0 {
			entries = append(entries, Entry{i, i - 1, d})
			exit += d
		}
		entries = append(entries, Entry{i, i, -exit})
	}
	q, err := NewCSR(n, n, entries)
	if err != nil {
		t.Fatalf("NewCSR: %v", err)
	}
	return q
}

func geometricStationary(n int, rho float64) []float64 {
	pi := make([]float64, n)
	v, sum := 1.0, 0.0
	for i := 0; i < n; i++ {
		pi[i] = v
		sum += v
		v *= rho
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

func TestSteadyStateGaussSeidelBirthDeath(t *testing.T) {
	t.Parallel()
	q := birthDeathGenerator(t, 6, 1, 2)
	pi, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
	if err != nil {
		t.Fatalf("SteadyStateGaussSeidel: %v", err)
	}
	want := geometricStationary(6, 0.5)
	for i := range want {
		if math.Abs(pi[i]-want[i]) > 1e-9 {
			t.Errorf("pi[%d] = %v, want %v", i, pi[i], want[i])
		}
	}
}

func TestSteadyStateAgreement(t *testing.T) {
	t.Parallel()
	// Random irreducible generators: Gauss–Seidel's answer must agree with
	// the balance equations it solves, checked independently by VecMul.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		var entries []Entry
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				// Dense random rates keep the chain irreducible.
				v := 0.05 + r.Float64()
				entries = append(entries, Entry{i, j, v})
				diag[i] -= v
			}
		}
		for i := 0; i < n; i++ {
			entries = append(entries, Entry{i, i, diag[i]})
		}
		q, err := NewCSR(n, n, entries)
		if err != nil {
			return false
		}
		pi, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
		if err != nil {
			return false
		}
		piQ, err := q.VecMul(pi, nil)
		if err != nil {
			return false
		}
		maxExit := 0.0
		for i := range diag {
			maxExit = math.Max(maxExit, -diag[i])
		}
		var sum float64
		for i := range pi {
			if pi[i] < 0 || math.Abs(piQ[i]) > residualTol*maxExit {
				return false
			}
			sum += pi[i]
		}
		return math.Abs(sum-1) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestSteadyStateNonSquare(t *testing.T) {
	t.Parallel()
	m, _ := NewCSR(2, 3, nil)
	if _, err := SteadyStateGaussSeidel(m, SteadyStateOptions{}); !errors.Is(err, ErrShape) {
		t.Errorf("err = %v, want ErrShape", err)
	}
}

func TestSteadyStateZeroGenerator(t *testing.T) {
	t.Parallel()
	q, _ := NewCSR(3, 3, nil)
	pi, err := SteadyStateGaussSeidel(q, SteadyStateOptions{})
	if err != nil {
		t.Fatalf("SteadyStateGaussSeidel(zero): %v", err)
	}
	for _, p := range pi {
		if math.Abs(p-1.0/3) > 1e-15 {
			t.Errorf("pi = %v, want uniform", pi)
		}
	}
}

func TestSteadyStateIterationBudget(t *testing.T) {
	t.Parallel()
	q := birthDeathGenerator(t, 50, 1, 1.01)
	_, err := gaussSeidel(q, SteadyStateOptions{},
		limits{diffTol: 1e-15, residualTol: residualTol, maxSweeps: 2})
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("err = %v, want ErrNoConvergence", err)
	}
}

func TestVecMulShapeError(t *testing.T) {
	t.Parallel()
	m, _ := NewCSR(2, 2, []Entry{{0, 1, 1}})
	if _, err := m.VecMul([]float64{1}, nil); !errors.Is(err, ErrShape) {
		t.Errorf("short x: err = %v", err)
	}
}

func TestNegativeDims(t *testing.T) {
	t.Parallel()
	if _, err := NewCSR(-1, 2, nil); !errors.Is(err, ErrShape) {
		t.Errorf("negative rows: err = %v", err)
	}
}
