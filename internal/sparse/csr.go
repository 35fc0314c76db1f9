// Package sparse provides compressed sparse row (CSR) matrices and the
// Gauss–Seidel steady-state solver used for CTMCs too large for the dense
// path.
package sparse

import (
	"errors"
	"fmt"
	"sort"
)

// ErrShape is reported on incompatible operand dimensions.
var ErrShape = errors.New("sparse: incompatible shapes")

// Entry is a single (row, col, value) triplet used to build matrices.
type Entry struct {
	Row, Col int
	Val      float64
}

// CSR is an immutable compressed-sparse-row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries are
// summed. Entries outside [0,rows)×[0,cols) yield an error.
func NewCSR(rows, cols int, entries []Entry) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("negative dimension %dx%d: %w", rows, cols, ErrShape)
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("entry (%d,%d) outside %dx%d: %w", e.Row, e.Col, rows, cols, ErrShape)
		}
	}
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	// Coalesce duplicates in place.
	coalesced := sorted[:0]
	for _, e := range sorted {
		if n := len(coalesced); n > 0 && coalesced[n-1].Row == e.Row && coalesced[n-1].Col == e.Col {
			coalesced[n-1].Val += e.Val
			continue
		}
		coalesced = append(coalesced, e)
	}
	m := &CSR{
		rows:   rows,
		cols:   cols,
		rowPtr: make([]int, rows+1),
		colIdx: make([]int, len(coalesced)),
		vals:   make([]float64, len(coalesced)),
	}
	for _, e := range coalesced {
		m.rowPtr[e.Row+1]++
	}
	for r := 0; r < rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	for k, e := range coalesced {
		m.colIdx[k] = e.Col
		m.vals[k] = e.Val
	}
	return m, nil
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns element (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j)
	if lo+idx < hi && m.colIdx[lo+idx] == j {
		return m.vals[lo+idx]
	}
	return 0
}

// VecMul computes y = xᵀ·m into out (allocated if nil or wrong length) and
// returns it.
func (m *CSR) VecMul(x []float64, out []float64) ([]float64, error) {
	if len(x) != m.rows {
		return nil, fmt.Errorf("VecMul: vector length %d, rows %d: %w", len(x), m.rows, ErrShape)
	}
	if len(out) != m.cols {
		out = make([]float64, m.cols)
	} else {
		for i := range out {
			out[i] = 0
		}
	}
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			out[m.colIdx[k]] += xi * m.vals[k]
		}
	}
	return out, nil
}

// Transpose returns the transposed matrix. It runs in O(nnz + rows + cols)
// with a two-pass counting scheme: the source is already coalesced and
// sorted, so no re-sorting or revalidation is needed, and scattering the
// entries in row order leaves every transposed row sorted by column.
func (m *CSR) Transpose() *CSR {
	nnz := m.NNZ()
	t := &CSR{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, nnz),
		vals:   make([]float64, nnz),
	}
	// Pass 1: count the entries landing in each transposed row.
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for r := 0; r < t.rows; r++ {
		t.rowPtr[r+1] += t.rowPtr[r]
	}
	// Pass 2: scatter. next[c] is the write cursor into transposed row c.
	next := make([]int, t.rows)
	copy(next, t.rowPtr[:t.rows])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.colIdx[k]
			p := next[c]
			next[c]++
			t.colIdx[p] = i
			t.vals[p] = m.vals[k]
		}
	}
	return t
}
