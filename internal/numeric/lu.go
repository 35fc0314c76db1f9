package numeric

import (
	"fmt"
	"math"
)

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly in lu (unit lower triangle implicit).
type LU struct {
	lu    *Matrix
	pivot []int
	scale []float64
	sign  int // +1/-1, parity of the permutation; 0 if singular
}

// Factor computes the LU factorization of a (which is not modified).
// A numerically singular matrix yields ErrSingular.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("Factor: matrix is %dx%d, want square: %w", a.Rows(), a.Cols(), ErrShape)
	}
	n := a.Rows()
	f := &LU{lu: a.Clone(), pivot: make([]int, n), scale: make([]float64, n), sign: 1}
	lu := f.lu
	for i := range f.pivot {
		f.pivot[i] = i
	}
	// Scaled partial pivoting keeps the factorization stable for the badly
	// scaled generators availability models produce (rates span 1e-7..1e2).
	scale := f.scale
	for i := 0; i < n; i++ {
		var mx float64
		for _, v := range lu.Row(i) {
			if av := math.Abs(v); av > mx {
				mx = av
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("row %d is zero: %w", i, ErrSingular)
		}
		scale[i] = 1 / mx
	}
	for k := 0; k < n; k++ {
		// Select pivot row.
		p, best := -1, 0.0
		for i := k; i < n; i++ {
			v := math.Abs(lu.At(i, k)) * scale[i]
			if v > best {
				best, p = v, i
			}
		}
		if p < 0 || lu.At(p, k) == 0 {
			return nil, fmt.Errorf("pivot %d: %w", k, ErrSingular)
		}
		if p != k {
			rp, rk := lu.Row(p), lu.Row(k)
			for j := range rp {
				rp[j], rk[j] = rk[j], rp[j]
			}
			scale[p], scale[k] = scale[k], scale[p]
			f.pivot[p], f.pivot[k] = f.pivot[k], f.pivot[p]
			f.sign = -f.sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri, rk := lu.Row(i), lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return f, nil
}

// Solve solves A·x = b for x. b is not modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("Solve: rhs length %d, want %d: %w", len(b), n, ErrShape)
	}
	x := make([]float64, n)
	// Apply permutation.
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLinear is a convenience wrapper: factor a and solve a·x = b.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse computes A⁻¹ column by column. Prefer Solve where possible; this
// exists for the fundamental-matrix computations in mean-time-to-absorption
// analysis where the full inverse is genuinely needed.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows()
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		e[j] = 0
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}
