package linalg

import (
	"math"
	"testing"

	"repro/internal/sample"
)

// maxRelDiff returns the largest elementwise |a-b| / max(1, |a|, |b|).
func maxRelDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		scale := math.Max(1, math.Max(math.Abs(a[i]), math.Abs(b[i])))
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

// choleskyUnblockedRef runs the pre-blocking jitter ladder with the
// one-row unblocked kernel — the reference for what Cholesky produced
// before the blocked path and the four-row passes existed.
func choleskyUnblockedRef(a *Matrix, startJitter float64, maxTries int) (*Matrix, float64, bool) {
	dst := NewMatrix(a.Rows, a.Cols)
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		if tryCholeskyOneRowInto(dst, a, jitter) {
			return dst, jitter, true
		}
		if jitter == 0 {
			jitter = startJitter
		} else {
			jitter *= 10
		}
	}
	return nil, jitter, false
}

// TestBlockedCholeskyEquivalenceSweep factors every size 1..200:
// the blocked kernel must agree with the unblocked one to 1e-9
// everywhere, and the dispatched CholeskyInto must be bit-identical
// to the pre-blocking output at or below blockedMin and bit-identical
// to the blocked kernel above it.
func TestBlockedCholeskyEquivalenceSweep(t *testing.T) {
	for n := 1; n <= 200; n++ {
		a := randomSPD(n, uint64(n)*7+1)
		ub := NewMatrix(n, n)
		if !tryCholeskyInto(ub, a, 0) {
			t.Fatalf("n=%d: unblocked kernel failed on SPD input", n)
		}
		bl := NewMatrix(n, n)
		if !tryCholeskyBlockedInto(bl, a, 0, 1) {
			t.Fatalf("n=%d: blocked kernel failed on SPD input", n)
		}
		if d := maxRelDiff(ub.Data, bl.Data); d > 1e-9 {
			t.Fatalf("n=%d: blocked vs unblocked rel diff %g > 1e-9", n, d)
		}
		got, jit, err := CholeskyInto(nil, a, 1e-10, 8)
		if err != nil || jit != 0 {
			t.Fatalf("n=%d: CholeskyInto err=%v jitter=%g", n, err, jit)
		}
		want := ub
		if n > blockedMin {
			want = bl
		}
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("n=%d: CholeskyInto not bit-identical to dispatched kernel at %d", n, i)
			}
		}
	}
}

// TestBlockedCholeskyJitterEscalation checks that a singular matrix
// above the blocked threshold escalates through the jitter ladder
// exactly like the pre-blocking code: same jitter, factor of
// A + jitter·I within 1e-9, and a reconstruction that matches the
// jittered input.
func TestBlockedCholeskyJitterEscalation(t *testing.T) {
	// Rank-deficient PSD: B Bᵀ with B of rank 40 ≪ n.
	n, r := 160, 40
	rng := sample.NewRNG(11)
	b := NewMatrix(n, r)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := Mul(b, b.T())
	got, jit, err := CholeskyInto(nil, a, 1e-10, 8)
	if err != nil {
		t.Fatalf("blocked jitter ladder failed: %v", err)
	}
	if jit == 0 {
		t.Fatalf("expected escalated jitter on a rank-%d matrix of order %d", r, n)
	}
	ref, refJit, ok := choleskyUnblockedRef(a, 1e-10, 8)
	if !ok {
		t.Fatalf("unblocked reference ladder failed")
	}
	if jit != refJit {
		t.Fatalf("blocked ladder used jitter %g, unblocked %g", jit, refJit)
	}
	if d := maxRelDiff(got.Data, ref.Data); d > 1e-9 {
		t.Fatalf("escalated factor rel diff %g > 1e-9", d)
	}
	// L Lᵀ must reconstruct A + jitter·I.
	recon := Mul(got, got.T())
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+jit)
	}
	if d := maxRelDiff(recon.Data, a.Data); d > 1e-8 {
		t.Fatalf("reconstruction rel diff %g > 1e-8", d)
	}
}

// TestBlockedCholeskyWorkersParity: tile tasks own disjoint tiles, so
// any worker count must produce bit-identical factors (workers=1≡N).
func TestBlockedCholeskyWorkersParity(t *testing.T) {
	for _, n := range []int{130, 192, 200, 321} {
		a := randomSPD(n, uint64(n))
		base := NewMatrix(n, n)
		if !tryCholeskyBlockedInto(base, a, 0, 1) {
			t.Fatalf("n=%d: serial blocked factorization failed", n)
		}
		for _, workers := range []int{2, 4, 8} {
			got := NewMatrix(n, n)
			if !tryCholeskyBlockedInto(got, a, 0, workers) {
				t.Fatalf("n=%d workers=%d: blocked factorization failed", n, workers)
			}
			for i := range got.Data {
				if got.Data[i] != base.Data[i] {
					t.Fatalf("n=%d: workers=%d differs from workers=1 at %d", n, workers, i)
				}
			}
		}
	}
}

// TestBlockedSolvesEquivalenceSweep: the forward solve is never
// blocked and must stay bit-identical to the reference loop at every
// size; the right-looking transpose solve must agree to 1e-9, and the
// dispatched SolveUpperTInto must match the pre-blocking loop below
// blockedMin bitwise and the blocked kernel above it.
func TestBlockedSolvesEquivalenceSweep(t *testing.T) {
	solveLowerRef := func(l *Matrix, b []float64) []float64 {
		n := l.Rows
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b[i]
			row := l.Row(i)
			for k := 0; k < i; k++ {
				s -= row[k] * y[k]
			}
			y[i] = s / row[i]
		}
		return y
	}
	solveUpperTRef := func(l *Matrix, y []float64) []float64 {
		n := l.Rows
		x := make([]float64, n)
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for k := i + 1; k < n; k++ {
				s -= l.At(k, i) * x[k]
			}
			x[i] = s / l.At(i, i)
		}
		return x
	}
	for n := 1; n <= 200; n += 7 {
		a := randomSPD(n, uint64(n)+99)
		l, _, err := CholeskyInto(nil, a, 1e-10, 8)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		rng := sample.NewRNG(uint64(n))
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		refY := solveLowerRef(l, b)
		refX := solveUpperTRef(l, refY)
		blX := SolveUpperTRowsInto(l, refY, make([]float64, n))
		if d := maxRelDiff(refX, blX); d > 1e-9 {
			t.Fatalf("n=%d: blocked transpose solve rel diff %g > 1e-9", n, d)
		}
		gotY := SolveLowerInto(l, b, nil)
		for i := range gotY {
			if gotY[i] != refY[i] {
				t.Fatalf("n=%d: SolveLowerInto not bit-identical to reference at %d", n, i)
			}
		}
		gotX := SolveUpperTInto(l, refY, nil)
		want := refX
		if n > blockedMin {
			want = blX
		}
		for i := range gotX {
			if gotX[i] != want[i] {
				t.Fatalf("n=%d: SolveUpperTInto not bit-identical to dispatched kernel at %d", n, i)
			}
		}
	}
}

// TestBlockedSolvesAliasing: the blocked solves keep the documented
// may-alias contract (dst == b solves in place).
func TestBlockedSolvesAliasing(t *testing.T) {
	n := 180
	a := randomSPD(n, 5)
	l, _, err := CholeskyInto(nil, a, 1e-10, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := sample.NewRNG(3)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	sep := SolveLowerInto(l, b, nil)
	inPlace := append([]float64(nil), b...)
	SolveLowerInto(l, inPlace, inPlace)
	for i := range sep {
		if sep[i] != inPlace[i] {
			t.Fatalf("aliased forward solve differs at %d", i)
		}
	}
	sepX := SolveUpperTInto(l, sep, nil)
	inPlaceX := append([]float64(nil), sep...)
	SolveUpperTInto(l, inPlaceX, inPlaceX)
	for i := range sepX {
		if sepX[i] != inPlaceX[i] {
			t.Fatalf("aliased transpose solve differs at %d", i)
		}
	}
	// End-to-end residual: A·x ≈ b through the blocked path.
	x := CholSolveInto(l, b, nil)
	ax := MulVec(a, x)
	if d := maxRelDiff(ax, b); d > 1e-6 {
		t.Fatalf("CholSolve residual %g too large", d)
	}
}
