// Cache-blocked variants of the factorization and solve kernels. The
// textbook kernels in scratch.go touch memory in patterns that fall
// out of cache once the kernel matrix outgrows L2 (~n=300 at 8 bytes
// per entry): the unblocked Cholesky re-reads two full row prefixes
// per inner element, and the transpose solve walks a column with
// stride n. The blocked right-looking Cholesky below factors the
// matrix tile by tile so the working set per step is a few tiles, and
// the right-looking transpose solve reads L row-contiguously.
//
// Numerical contract: the blocked Cholesky and transpose solve
// regroup the same floating-point sums that the unblocked kernels
// compute, so their results agree to relative 1e-9 but not bitwise.
// CholeskyInto / SolveUpperTInto therefore dispatch to the blocked
// path only above blockedMin rows; below it they run the unchanged
// unblocked kernels and stay bit-identical to the pre-blocking
// implementation. The forward solve (SolveLowerInto) is deliberately
// never blocked: its direct loop already streams L once, and a
// panelled version measured slower on the acquisition hot path. Its
// multi-right-hand-side form (SolveLowerMultiInto) groups right-hand
// sides, four per pass over L, and regroups no sum: every side is
// bit-identical to its own SolveLowerInto. Tile
// tasks write disjoint tile sets, so results are independent of the
// worker count (workers=1 ≡ workers=N, like the rest of
// internal/par).
package linalg

import (
	"math"

	"repro/internal/par"
)

const (
	// cholTile is the blocked-Cholesky tile edge. 64×64 float64 tiles
	// are 32KiB — three of them (the destination tile and the two
	// panel operands) sit comfortably in a 256KiB L2.
	cholTile = 64
	// blockedMin is the matrix order above which the blocked kernels
	// engage. Below it the unblocked kernels are both faster (no tile
	// bookkeeping) and bit-identical to the pre-blocking code, which
	// the GP's fast-path tests pin.
	blockedMin = 128
)

// tryCholeskyBlockedInto factorizes a+jitter·I into dst with a
// right-looking blocked algorithm: per tile column, factor the
// diagonal tile, triangular-solve the panel below it, then subtract
// the panel's outer product from the trailing submatrix. The panel
// solve parallelizes over row tiles and the trailing update over tile
// pairs; every element is written by exactly one task with a fixed
// inner loop order, so the result is the same for any worker count.
// It reports whether every pivot stayed positive.
func tryCholeskyBlockedInto(dst, a *Matrix, jitter float64, workers int) bool {
	n := a.Rows
	// Load the lower triangle of a (plus jitter on the diagonal) into
	// dst; the factorization then runs in place. The strict upper
	// triangle is zeroed to match the unblocked kernel's output.
	for i := 0; i < n; i++ {
		di := dst.Row(i)
		ai := a.Row(i)
		copy(di[:i+1], ai[:i+1])
		di[i] += jitter
		for j := i + 1; j < n; j++ {
			di[j] = 0
		}
	}
	for j0 := 0; j0 < n; j0 += cholTile {
		j1 := min(j0+cholTile, n)
		// Factor the diagonal tile in place (same loop order as the
		// unblocked kernel, restricted to columns j0..j1; the tile
		// already holds A minus all earlier panels' contributions).
		for j := j0; j < j1; j++ {
			jrow := dst.Row(j)
			d := jrow[j]
			for k := j0; k < j; k++ {
				d -= jrow[k] * jrow[k]
			}
			if d <= 0 || math.IsNaN(d) {
				return false
			}
			ljj := math.Sqrt(d)
			jrow[j] = ljj
			for i := j + 1; i < j1; i++ {
				irow := dst.Row(i)
				s := irow[j]
				for k := j0; k < j; k++ {
					s -= irow[k] * jrow[k]
				}
				irow[j] = s / ljj
			}
		}
		if j1 == n {
			break
		}
		// Panel solve: rows j1..n-1 of columns j0..j1 become
		// L21 = A21·L11⁻ᵀ by per-row forward substitution. Rows are
		// independent — parallel over row tiles.
		nTiles := (n - j1 + cholTile - 1) / cholTile
		par.ForEach(workers, nTiles, func(t int) {
			i0 := j1 + t*cholTile
			i1 := min(i0+cholTile, n)
			for i := i0; i < i1; i++ {
				irow := dst.Row(i)
				for j := j0; j < j1; j++ {
					s := irow[j]
					jrow := dst.Row(j)
					for k := j0; k < j; k++ {
						s -= irow[k] * jrow[k]
					}
					irow[j] = s / jrow[j]
				}
			}
		})
		// Trailing update: A22 -= L21·L21ᵀ, lower triangle only,
		// parallel over the lower-triangular (ti, tj) tile pairs.
		// Each pair owns a disjoint tile of dst.
		pairs := nTiles * (nTiles + 1) / 2
		par.ForEach(workers, pairs, func(p int) {
			ti := int((math.Sqrt(float64(8*p+1)) - 1) / 2)
			for (ti+1)*(ti+2)/2 <= p {
				ti++
			}
			for ti*(ti+1)/2 > p {
				ti--
			}
			tj := p - ti*(ti+1)/2
			i0 := j1 + ti*cholTile
			i1 := min(i0+cholTile, n)
			jStart := j1 + tj*cholTile
			jEnd := min(jStart+cholTile, n)
			for i := i0; i < i1; i++ {
				irow := dst.Row(i)
				jmax := min(jEnd, i+1)
				for j := jStart; j < jmax; j++ {
					jrow := dst.Row(j)
					s := irow[j]
					for k := j0; k < j1; k++ {
						s -= irow[k] * jrow[k]
					}
					irow[j] = s
				}
			}
		})
	}
	return true
}

// SolveUpperTRowsInto solves Lᵀx = y right-looking: as soon as x[i]
// is known, its contribution L[i][j]·x[i] is subtracted from every
// remaining y[j], which reads L one contiguous row at a time instead
// of walking columns with stride n. The per-element sums accumulate in
// descending-k order (the unblocked kernel uses ascending), so results
// agree to 1e-9 rather than bitwise; SolveUpperTInto only dispatches
// here above blockedMin, and callers bound by no bit-for-bit contract
// (the GP's posterior gradient) call it directly. dst may alias y.
func SolveUpperTRowsInto(l *Matrix, y, dst []float64) []float64 {
	n := l.Rows
	if &dst[0] != &y[0] {
		copy(dst, y)
	}
	for i := n - 1; i >= 0; i-- {
		row := l.Row(i)
		xi := dst[i] / row[i]
		dst[i] = xi
		for j := 0; j < i; j++ {
			dst[j] -= row[j] * xi
		}
	}
	return dst
}
