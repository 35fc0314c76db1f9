// Package numeric provides the dense linear-algebra kernel used by package
// ctmc's absorption analysis: matrices, vectors, LU factorization with
// partial pivoting, and the associated solve/refine routines. (Steady
// states are solved by GTH state reduction in package ctmc itself.)
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS: availability models are dense but tiny (tens to a few
// thousand states), and the solvers above it (package ctmc) need exact
// control over pivoting and singularity reporting.
package numeric

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrSingular is reported when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("numeric: matrix is singular")

// ErrShape is reported when operand dimensions are incompatible.
var ErrShape = errors.New("numeric: incompatible shapes")

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		rows, cols = 0, 0
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewMatrixFrom builds a matrix from a slice of rows. All rows must have
// equal length. The data is copied.
func NewMatrixFrom(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("row %d has %d columns, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a newly allocated transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Scale multiplies every element by s, in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// MulVec computes y = m·x. It returns an error if dimensions mismatch.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.cols {
		return nil, fmt.Errorf("MulVec: vector length %d, matrix cols %d: %w", len(x), m.cols, ErrShape)
	}
	y := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// VecMul computes y = xᵀ·m (row vector times matrix).
func (m *Matrix) VecMul(x []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("VecMul: vector length %d, matrix rows %d: %w", len(x), m.rows, ErrShape)
	}
	y := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			y[j] += xi * v
		}
	}
	return y, nil
}

// Mul computes the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("Mul: %dx%d by %dx%d: %w", m.rows, m.cols, b.rows, b.cols, ErrShape)
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		arow := m.Row(i)
		orow := out.Row(i)
		for k, a := range arow {
			if a == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += a * bv
			}
		}
	}
	return out, nil
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// NormInf returns the infinity norm (max absolute row sum).
func (m *Matrix) NormInf() float64 {
	var mx float64
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += math.Abs(v)
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%12.6g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
