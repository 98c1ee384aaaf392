package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sample"
)

// TestCholeskyIntoMatchesCholesky: reusing a dirty scratch matrix must
// produce a bit-identical factor to a fresh allocation.
func TestCholeskyIntoMatchesCholesky(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%12) + 1
		a := randomSPD(n, seed)
		want, wj, err := Cholesky(a, 0, 0)
		if err != nil {
			return false
		}
		// Poison the scratch so stale contents would be caught.
		dst := NewMatrix(n, n)
		for i := range dst.Data {
			dst.Data[i] = math.NaN()
		}
		got, gj, err := CholeskyInto(dst, a, 0, 0)
		if err != nil || got != dst || gj != wj {
			return false
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCholeskyIntoReallocates: nil or wrong-shaped dst is replaced.
func TestCholeskyIntoReallocates(t *testing.T) {
	a := randomSPD(4, 1)
	l, _, err := CholeskyInto(nil, a, 0, 0)
	if err != nil || l == nil || l.Rows != 4 {
		t.Fatalf("nil dst: %v %v", l, err)
	}
	small := NewMatrix(2, 2)
	l2, _, err := CholeskyInto(small, a, 0, 0)
	if err != nil || l2 == small || l2.Rows != 4 {
		t.Fatalf("wrong-shaped dst not reallocated: %v %v", l2, err)
	}
}

// TestSolveIntoMatchesAllocating: the Into solves are bit-identical to
// their allocating counterparts, including when solving in place.
func TestSolveIntoMatchesAllocating(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%10) + 1
		a := randomSPD(n, seed)
		l, _, err := Cholesky(a, 0, 0)
		if err != nil {
			return false
		}
		rng := sample.NewRNG(seed ^ 0x51a7e)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		wantY := SolveLower(l, b)
		wantX := SolveUpperT(l, wantY)
		wantS := CholSolve(l, b)

		dst := make([]float64, n)
		gotY := SolveLowerInto(l, b, dst)
		for i := range wantY {
			if gotY[i] != wantY[i] {
				return false
			}
		}
		gotX := SolveUpperTInto(l, gotY, gotY) // in place
		for i := range wantX {
			if gotX[i] != wantX[i] {
				return false
			}
		}
		inPlace := append([]float64(nil), b...)
		gotS := CholSolveInto(l, inPlace, inPlace)
		for i := range wantS {
			if gotS[i] != wantS[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCholAppendMatchesFullCholesky: factor the leading n×n block,
// append the final row/column, and the result must be bit-identical to
// factorizing the full (n+1)×(n+1) matrix directly.
func TestCholAppendMatchesFullCholesky(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%12) + 2 // full size >= 2 so the block is >= 1
		full := randomSPD(n, seed)
		want, jitter, err := Cholesky(full, 0, 0)
		if err != nil || jitter != 0 {
			return false
		}
		block := NewMatrix(n-1, n-1)
		for i := 0; i < n-1; i++ {
			copy(block.Row(i), full.Row(i)[:n-1])
		}
		lBlock, _, err := Cholesky(block, 0, 0)
		if err != nil {
			return false
		}
		border := make([]float64, n-1)
		for i := 0; i < n-1; i++ {
			border[i] = full.At(n-1, i)
		}
		got, err := CholAppend(lBlock, border, full.At(n-1, n-1), 0)
		if err != nil {
			return false
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCholAppendWithJitter: when the original factorization needed
// jitter, appending with the same jitter matches refactorizing the
// bordered matrix at that jitter level.
func TestCholAppendWithJitter(t *testing.T) {
	// Nearly singular block: two almost-identical rows.
	n := 4
	full := NewMatrix(n, n)
	v := [][]float64{
		{1, 0.999, 0.5, 0.2},
		{0.999, 1, 0.5, 0.2},
		{0.5, 0.5, 1, 0.3},
		{0.2, 0.2, 0.3, 1},
	}
	for i := range v {
		copy(full.Row(i), v[i])
	}
	block := NewMatrix(n-1, n-1)
	for i := 0; i < n-1; i++ {
		copy(block.Row(i), full.Row(i)[:n-1])
	}
	lBlock, jitter, err := Cholesky(block, 1e-10, 8)
	if err != nil {
		t.Fatal(err)
	}
	border := []float64{full.At(3, 0), full.At(3, 1), full.At(3, 2)}
	got, err := CholAppend(lBlock, border, full.At(3, 3), jitter)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: factor full + jitter·I directly (force the same jitter
	// by adding it to the diagonal and factorizing with none).
	ref := full.Clone()
	for i := 0; i < n; i++ {
		ref.Set(i, i, ref.At(i, i)+jitter)
	}
	want, wj, err := Cholesky(ref, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wj != 0 {
		t.Fatalf("reference needed extra jitter %g", wj)
	}
	for i := range want.Data {
		if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
			t.Fatalf("entry %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestCholAppendRejectsBadPivot: a border that makes the matrix
// indefinite must fail rather than produce NaNs.
func TestCholAppendRejectsBadPivot(t *testing.T) {
	a := randomSPD(3, 9)
	l, _, err := Cholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// c = 0 with a large border makes the Schur complement negative.
	if _, err := CholAppend(l, []float64{100, 100, 100}, 0, 0); err == nil {
		t.Error("indefinite extension accepted")
	}
}

// TestCholAppendShapeErrors covers the defensive paths.
func TestCholAppendShapeErrors(t *testing.T) {
	if _, err := CholAppend(NewMatrix(2, 3), []float64{1, 1}, 1, 0); err == nil {
		t.Error("non-square factor accepted")
	}
	if _, err := CholAppend(NewMatrix(2, 2), []float64{1}, 1, 0); err == nil {
		t.Error("mismatched border accepted")
	}
}

// TestCholAppendDoesNotMutateInput: the original factor must be
// untouched (the BO engine shares factors across forked engines).
func TestCholAppendDoesNotMutateInput(t *testing.T) {
	a := randomSPD(3, 11)
	l, _, err := Cholesky(a, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), l.Data...)
	if _, err := CholAppend(l, []float64{0.1, 0.2, 0.3}, 5, 0); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if l.Data[i] != before[i] {
			t.Fatal("CholAppend mutated its input factor")
		}
	}
}

// tryCholeskyOneRowInto is the unblocked kernel as it was before
// tryCholeskyInto computed four rows per pass: one row at a time, one
// accumulator, ascending k. It is kept as the bit-identity oracle for
// the grouped kernel. TestCholeskyIntoMatchesCholesky cannot catch a
// reordered sum, because both of its sides run the live kernel.
func tryCholeskyOneRowInto(dst, a *Matrix, jitter float64) bool {
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	n := a.Rows
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j) + jitter
		for k := 0; k < j; k++ {
			v := dst.At(j, k)
			d -= v * v
		}
		if d <= 0 || math.IsNaN(d) {
			return false
		}
		ljj := math.Sqrt(d)
		dst.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			lrow := dst.Row(i)
			jrow := dst.Row(j)
			for k := 0; k < j; k++ {
				s -= lrow[k] * jrow[k]
			}
			dst.Set(i, j, s/ljj)
		}
	}
	return true
}

// duplicateRowKernel is an RBF kernel matrix over n random points in
// the unit cube with point 1 a copy of point 0 and no noise term: rows
// 0 and 1 are equal, so the clean factorization fails and the jitter
// ladder has to escalate (as a GP fit with a duplicated observation
// does).
func duplicateRowKernel(n int, seed uint64) *Matrix {
	rng := sample.NewRNG(seed)
	pts := make([][]float64, n)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	if n > 1 {
		pts[1] = pts[0]
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var sq float64
			for k := range pts[i] {
				d := pts[i][k] - pts[j][k]
				sq += d * d
			}
			a.Set(i, j, math.Exp(-sq/0.5))
		}
	}
	return a
}

// TestCholeskyMatchesOneRowOracle: CholeskyInto and CholeskyWorkersInto
// produce the one-row oracle's factor and jitter bit for bit at every
// size the unblocked kernel serves (both below and at blockedMin, and
// sizes that leave 0-3 rows past a multiple of four), on well
// conditioned matrices and on a duplicate-row kernel that needs jitter
// escalation.
func TestCholeskyMatchesOneRowOracle(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 64, 120, 128}
	escalated := 0
	for _, n := range sizes {
		for _, tc := range []struct {
			name string
			a    *Matrix
		}{
			{"spd", randomSPD(n, uint64(n)*31+5)},
			{"duplicate-row", duplicateRowKernel(n, uint64(n))},
		} {
			want, wantJit, ok := choleskyUnblockedRef(tc.a, 1e-10, 8)
			if !ok {
				t.Fatalf("n=%d %s: oracle ladder failed", n, tc.name)
			}
			if wantJit > 0 {
				escalated++
			}
			dirty := NewMatrix(n, n)
			for i := range dirty.Data {
				dirty.Data[i] = math.NaN()
			}
			gotInto, jitInto, err := CholeskyInto(nil, tc.a, 1e-10, 8)
			if err != nil {
				t.Fatalf("n=%d %s: CholeskyInto: %v", n, tc.name, err)
			}
			gotW, jitW, err := CholeskyWorkersInto(dirty, tc.a, 1e-10, 8, 4)
			if err != nil {
				t.Fatalf("n=%d %s: CholeskyWorkersInto: %v", n, tc.name, err)
			}
			if jitInto != wantJit || jitW != wantJit {
				t.Fatalf("n=%d %s: jitter %g/%g, oracle %g", n, tc.name, jitInto, jitW, wantJit)
			}
			for i := range want.Data {
				if gotInto.Data[i] != want.Data[i] || gotW.Data[i] != want.Data[i] {
					t.Fatalf("n=%d %s: entry (%d,%d) = %v/%v, oracle %v", n, tc.name,
						i/n, i%n, gotInto.Data[i], gotW.Data[i], want.Data[i])
				}
			}
		}
	}
	// The duplicate-row case is only a jitter test if the ladder
	// actually climbed for most sizes (n=1 has nothing to duplicate).
	if escalated < len(sizes)-1 {
		t.Fatalf("jitter escalated on %d matrices, want at least %d", escalated, len(sizes)-1)
	}
}

// TestSolveLowerMultiMatchesSingle: every right-hand side of the
// grouped forward solve equals SolveLowerInto on that side alone, bit
// for bit, for 0-9 sides (whole groups of four plus every leftover
// count), with separate and aliased (in-place) destinations.
func TestSolveLowerMultiMatchesSingle(t *testing.T) {
	for _, n := range []int{1, 2, 5, 31, 120} {
		l, _, err := Cholesky(randomSPD(n, uint64(n)+17), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng := sample.NewRNG(uint64(n))
		for m := 0; m <= 9; m++ {
			b := make([][]float64, m)
			dst := make([][]float64, m)
			inPlace := make([][]float64, m)
			for r := range b {
				b[r] = make([]float64, n)
				for i := range b[r] {
					b[r][i] = rng.NormFloat64()
				}
				dst[r] = make([]float64, n)
				inPlace[r] = append([]float64(nil), b[r]...)
			}
			SolveLowerMultiInto(l, b, dst)
			SolveLowerMultiInto(l, inPlace, inPlace)
			for r := range b {
				want := SolveLowerInto(l, b[r], nil)
				for i := range want {
					if dst[r][i] != want[i] || inPlace[r][i] != want[i] {
						t.Fatalf("n=%d m=%d side %d entry %d: %v/%v, single %v",
							n, m, r, i, dst[r][i], inPlace[r][i], want[i])
					}
				}
			}
		}
	}
}

// TestSolveLowerMultiPanicsOnShape covers the length checks, on a
// whole group of four sides so the grouped loop is the one guarded.
func TestSolveLowerMultiPanicsOnShape(t *testing.T) {
	l, _, err := Cholesky(randomSPD(3, 1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sides := func(lens ...int) [][]float64 {
		out := make([][]float64, len(lens))
		for i, n := range lens {
			out[i] = make([]float64, n)
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		b, dst [][]float64
	}{
		{"count", sides(3, 3, 3, 3), sides(3, 3, 3)},
		{"b length", sides(3, 3, 3, 4), sides(3, 3, 3, 3)},
		{"dst length", sides(3, 3, 3, 3), sides(3, 4, 3, 3)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch accepted", tc.name)
				}
			}()
			SolveLowerMultiInto(l, tc.b, tc.dst)
		}()
	}
}

// TestCholInverseMatchesSolves: CholInverseInto's upper triangle is
// A⁻¹ column by column, as CholSolveInto finds it from the unit
// vectors, to 1e-10 relative, for orders past a multiple of four and
// past blockedMin; it leaves the strict lower triangle alone.
func TestCholInverseMatchesSolves(t *testing.T) {
	for _, n := range []int{1, 2, 7, 33, blockedMin + 3} {
		a := randomSPD(n, uint64(n))
		l, _, err := Cholesky(a, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		inv := NewMatrix(n, n)
		for i := range inv.Data {
			inv.Data[i] = math.NaN()
		}
		CholInverseInto(l, inv)
		e := make([]float64, n)
		for j := 0; j < n; j++ {
			clear(e)
			e[j] = 1
			col := CholSolveInto(l, e, nil)
			for i := 0; i < n; i++ {
				got := inv.At(i, j)
				if i > j {
					if !math.IsNaN(got) {
						t.Fatalf("n=%d: strict lower entry (%d,%d) written: %v", n, i, j, got)
					}
					continue
				}
				if math.Abs(got-col[i]) > 1e-10*math.Max(1, math.Abs(col[i])) {
					t.Fatalf("n=%d: A⁻¹[%d][%d] = %v, solve gives %v", n, i, j, got, col[i])
				}
			}
		}
	}
}
