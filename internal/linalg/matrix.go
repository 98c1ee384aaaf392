// Package linalg implements the small dense linear-algebra kernel the
// Gaussian-Process surrogate needs: row-major matrices, Cholesky
// factorization with jitter for near-singular kernels, and triangular
// solves. It is deliberately minimal — just what a GP with a few
// hundred training points requires — but numerically careful.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix with the given shape. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product a*b. It panics on shape mismatch.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.Cols; k++ {
			av := arow[k]
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
	return out
}

// Dot returns the inner product of a and b. It panics on length
// mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky computes the lower-triangular Cholesky factor L of the
// symmetric positive-definite matrix a (a = L Lᵀ). If a is not
// numerically positive definite, increasing jitter (starting at
// startJitter, multiplied by 10 up to maxTries times) is added to the
// diagonal until the factorization succeeds. It returns the factor,
// the jitter actually used, and an error if factorization failed even
// at the largest jitter.
func Cholesky(a *Matrix, startJitter float64, maxTries int) (l *Matrix, jitter float64, err error) {
	return CholeskyInto(nil, a, startJitter, maxTries)
}

// LogDetFromChol returns log|A| given A's lower Cholesky factor L:
// log|A| = 2 Σ log L_ii.
func LogDetFromChol(l *Matrix) float64 {
	var s float64
	for i := 0; i < l.Rows; i++ {
		s += math.Log(l.At(i, i))
	}
	return 2 * s
}

// SymmetricFromUpper mirrors the upper triangle of m onto its lower
// triangle in place, enforcing exact symmetry after accumulation of
// rounding error.
func SymmetricFromUpper(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Set(j, i, m.At(i, j))
		}
	}
}
