package linalg

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// Clone returns a deep copy of m. Only tests copy matrices, so it
// lives here rather than in the package.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns the matrix-vector product m*x (test-only, like
// Clone). It panics on shape mismatch.
func MulVec(m *Matrix, x []float64) []float64 {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.Rows, m.Cols, len(x)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// SolveLower, SolveUpperT and CholSolve are the allocating forms of
// the solves (test-only, like Clone and MulVec).

// SolveLower solves L y = b for y where L is lower triangular
// (forward substitution).
func SolveLower(l *Matrix, b []float64) []float64 {
	if len(b) != l.Rows {
		panic("linalg: SolveLower length mismatch")
	}
	return SolveLowerInto(l, b, nil)
}

// SolveUpperT solves Lᵀ x = y for x where L is lower triangular
// (backward substitution on the transpose).
func SolveUpperT(l *Matrix, y []float64) []float64 {
	if len(y) != l.Rows {
		panic("linalg: SolveUpperT length mismatch")
	}
	return SolveUpperTInto(l, y, nil)
}

// CholSolve solves A x = b given the lower Cholesky factor L of A.
func CholSolve(l *Matrix, b []float64) []float64 {
	return SolveUpperT(l, SolveLower(l, b))
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(0, 2, 3)
	m.Set(1, 1, 5)
	if m.At(0, 2) != 3 || m.At(1, 1) != 5 || m.At(1, 0) != 0 {
		t.Fatal("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row should be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 100)
	if m.At(0, 0) == 100 {
		t.Fatal("Clone shares storage")
	}
	tt := m.T()
	if tt.Rows != 3 || tt.Cols != 2 || tt.At(2, 0) != 3 {
		t.Fatal("transpose broken")
	}
}

func TestNewMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMatrix(0, 3) should panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestMul(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 2)
	// a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almost(c.Data[i], w, 1e-12) {
			t.Fatalf("Mul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrix(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	y := MulVec(a, []float64{1, 1, 1})
	if !almost(y[0], 6, 1e-12) || !almost(y[1], 15, 1e-12) {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestDot(t *testing.T) {
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); !almost(d, 32, 1e-12) {
		t.Fatalf("Dot = %v", d)
	}
}

func randomSPD(n int, seed uint64) *Matrix {
	rng := sample.NewRNG(seed)
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// A = B Bᵀ + n*I is SPD.
	a := Mul(b, b.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

func TestCholeskyReconstruction(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20} {
		a := randomSPD(n, uint64(n))
		l, jitter, err := Cholesky(a, 0, 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if jitter != 0 {
			t.Errorf("n=%d: unexpected jitter %v for SPD matrix", n, jitter)
		}
		rec := Mul(l, l.T())
		for i := range a.Data {
			if !almost(rec.Data[i], a.Data[i], 1e-8) {
				t.Fatalf("n=%d: reconstruction error at %d: %v vs %v", n, i, rec.Data[i], a.Data[i])
			}
		}
	}
}

func TestCholeskyPropertySolve(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%10) + 1
		a := randomSPD(n, seed)
		rng := sample.NewRNG(seed ^ 0xabcdef)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		l, _, err := Cholesky(a, 0, 0)
		if err != nil {
			return false
		}
		x := CholSolve(l, b)
		ax := MulVec(a, x)
		for i := range b {
			if !almost(ax[i], b[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCholeskyJitterRecovery(t *testing.T) {
	// A singular matrix (rank 1) should succeed with jitter.
	n := 4
	a := NewMatrix(n, n)
	v := []float64{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, v[i]*v[j])
		}
	}
	l, jitter, err := Cholesky(a, 1e-10, 12)
	if err != nil {
		t.Fatalf("jittered Cholesky failed: %v", err)
	}
	if jitter == 0 {
		t.Error("expected nonzero jitter for a singular matrix")
	}
	if l.Rows != n {
		t.Error("bad factor shape")
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, _, err := Cholesky(NewMatrix(2, 3), 0, 0); err == nil {
		t.Error("non-square matrix should error")
	}
}

func TestCholeskyFailsOnNegativeDefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, -5)
	a.Set(1, 1, -5)
	if _, _, err := Cholesky(a, 1e-10, 3); err == nil {
		t.Error("negative definite matrix should fail even with small jitter")
	}
}

func TestTriangularSolves(t *testing.T) {
	l := NewMatrix(3, 3)
	copy(l.Data, []float64{2, 0, 0, 1, 3, 0, 4, 5, 6})
	b := []float64{2, 7, 32}
	y := SolveLower(l, b)
	// 2y0=2 => y0=1; y0+3y1=7 => y1=2; 4+10+6y2=32 => y2=3
	want := []float64{1, 2, 3}
	for i := range want {
		if !almost(y[i], want[i], 1e-12) {
			t.Fatalf("SolveLower = %v", y)
		}
	}
	// Verify Lᵀx = y via reconstruction.
	x := SolveUpperT(l, y)
	lt := l.T()
	rec := MulVec(lt, x)
	for i := range y {
		if !almost(rec[i], y[i], 1e-10) {
			t.Fatalf("SolveUpperT residual at %d", i)
		}
	}
}

func TestLogDetFromChol(t *testing.T) {
	// A = diag(4, 9): |A| = 36, log|A| = log 36.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(1, 1, 9)
	l, _, err := Cholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := LogDetFromChol(l); !almost(got, math.Log(36), 1e-10) {
		t.Fatalf("LogDet = %v, want %v", got, math.Log(36))
	}
}

func TestSymmetricFromUpper(t *testing.T) {
	m := NewMatrix(3, 3)
	copy(m.Data, []float64{1, 2, 3, 0, 4, 5, 0, 0, 6})
	SymmetricFromUpper(m)
	if m.At(1, 0) != 2 || m.At(2, 0) != 3 || m.At(2, 1) != 5 {
		t.Fatalf("not symmetric: %v", m.Data)
	}
}
