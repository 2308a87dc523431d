// Sparse basis factorization for the revised simplex: an LU decomposition
// of the basis matrix held in column-sparse form, plus a product-form eta
// file for the pivots performed since the last refactorization. FTRAN and
// BTRAN are sparse triangular solves through L, U and the eta file, so the
// per-iteration cost tracks the nonzero structure of the basis instead of
// the dense m² of an explicit inverse — on the allocation relaxation
// (a few nonzeros per column) that is the difference between toy-scale and
// paper-scale LP solves.

package lp

import (
	"math"

	"vmalloc/internal/sliceutil"
)

// luPivotTol is the magnitude below which a factorization pivot is treated
// as singular.
const luPivotTol = 1e-10

// refactorEvery bounds the eta file length: after this many post-
// factorization pivots the basis is refactorized from scratch, keeping both
// solve cost and accumulated roundoff in check.
const refactorEvery = 64

// basisLU is the factorized basis. Elimination step t processed basis slot
// ord[t] and pivoted matrix row pivotRow[t]; L carries the elimination
// multipliers (unit diagonal implicit), U the triangularized columns in
// step space. Slots and rows share the index set 0..m-1 (basis[i] is the
// column basic in row i).
type basisLU struct {
	m        int
	ord      []int // elimination order over basis slots
	pivotRow []int // pivotRow[t] = matrix row pivoted at step t
	rowStep  []int // inverse permutation: rowStep[pivotRow[t]] = t
	lRows    [][]int
	lVals    [][]float64
	uRows    [][]int // row indices of earlier pivots, per step
	uVals    [][]float64
	uDiag    []float64

	// Product-form eta file, flattened into one arena: eta k pivots slot
	// etaSlot[k] with direction entries etaIdx/etaVal[etaStart[k]:
	// etaStart[k+1]] (the FTRAN of the entering column at pivot time), and
	// its pivot entry sits at arena position etaPivot[k].
	etaSlot  []int
	etaStart []int
	etaPivot []int
	etaIdx   []int
	etaVal   []float64

	x []float64 // row/slot-space scratch
	z []float64 // step-space scratch

	// factorize's scratch: per-nonzero-count slot counts, the pivoted-row
	// flags and the touched-row list.
	bucket  []int
	pivoted []bool
	touched []int
}

// reset sizes the factorization for m rows, reusing the arrays (and the
// per-step L and U storage) it already holds. The factors themselves are
// undefined until the next factorize.
func (lu *basisLU) reset(m int) {
	lu.m = m
	lu.ord = sliceutil.Fit(lu.ord, m)
	lu.pivotRow = sliceutil.Fit(lu.pivotRow, m)
	lu.rowStep = sliceutil.Fit(lu.rowStep, m)
	lu.lRows = growKeep(lu.lRows, m)
	lu.lVals = growKeep(lu.lVals, m)
	lu.uRows = growKeep(lu.uRows, m)
	lu.uVals = growKeep(lu.uVals, m)
	lu.uDiag = sliceutil.Fit(lu.uDiag, m)
	lu.x = sliceutil.Fit(lu.x, m)
	lu.z = sliceutil.Fit(lu.z, m)
	clear(lu.z)
	lu.pivoted = sliceutil.Fit(lu.pivoted, m)
}

// growKeep resizes s to n elements, carrying the existing elements (here:
// per-step storage worth reusing) across a reallocation.
func growKeep[E any](s [][]E, n int) [][]E {
	if cap(s) >= n {
		return s[:n]
	}
	t := make([][]E, n, n+n/8)
	copy(t, s)
	return t
}

// nEtas returns the eta-file length since the last factorization.
func (lu *basisLU) nEtas() int { return len(lu.etaSlot) }

// factorize rebuilds the LU factors from the given basis columns and clears
// the eta file. Slots are eliminated sparsest-column-first with partial
// pivoting by magnitude. It reports false on a numerically singular basis,
// leaving the factorization unusable.
func (lu *basisLU) factorize(bcols []*sparseCol) bool {
	lu.etaSlot = lu.etaSlot[:0]
	lu.etaStart = append(lu.etaStart[:0], 0)
	lu.etaPivot = lu.etaPivot[:0]
	lu.etaIdx = lu.etaIdx[:0]
	lu.etaVal = lu.etaVal[:0]

	// Sparsest columns first keeps the slack-heavy part of the basis
	// fill-free; a stable counting sort by nonzero count.
	maxNNZ := 0
	for _, c := range bcols {
		maxNNZ = max(maxNNZ, len(c.rows))
	}
	start := zeroed(lu.bucket, maxNNZ+2)
	lu.bucket = start
	for _, c := range bcols {
		start[len(c.rows)+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	for slot, c := range bcols {
		lu.ord[start[len(c.rows)]] = slot
		start[len(c.rows)]++
	}

	x := lu.x
	for i := range x {
		x[i] = 0
	}
	pivoted := lu.pivoted
	clear(pivoted)
	touched := lu.touched[:0]

	for t, slot := range lu.ord {
		c := bcols[slot]
		touched = touched[:0]
		for k, r := range c.rows {
			x[r] = c.vals[k]
			touched = append(touched, r)
		}
		// Eliminate with the L columns of earlier steps, tracking fill-in.
		for t2 := 0; t2 < t; t2++ {
			r2 := lu.pivotRow[t2]
			xr := x[r2]
			if xr == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				continue
			}
			rows, vals := lu.lRows[t2], lu.lVals[t2]
			for k, i := range rows {
				if x[i] == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
					touched = append(touched, i)
				}
				x[i] -= vals[k] * xr
			}
		}
		// Partial pivoting among unpivoted rows.
		piv, pivAbs := -1, luPivotTol
		for _, i := range touched {
			if !pivoted[i] {
				if a := math.Abs(x[i]); a > pivAbs {
					piv, pivAbs = i, a
				}
			}
		}
		if piv < 0 {
			for _, i := range touched {
				x[i] = 0
			}
			lu.touched = touched
			return false
		}
		pv := x[piv]
		lr, lv := lu.lRows[t][:0], lu.lVals[t][:0]
		ur, uv := lu.uRows[t][:0], lu.uVals[t][:0]
		for _, i := range touched {
			v := x[i]
			x[i] = 0
			if v == 0 || i == piv { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				continue
			}
			if pivoted[i] {
				ur = append(ur, i)
				uv = append(uv, v)
			} else {
				lr = append(lr, i)
				lv = append(lv, v/pv)
			}
		}
		lu.lRows[t], lu.lVals[t] = lr, lv
		lu.uRows[t], lu.uVals[t] = ur, uv
		lu.uDiag[t] = pv
		lu.pivotRow[t] = piv
		lu.rowStep[piv] = t
		pivoted[piv] = true
	}
	lu.touched = touched
	return true
}

// appendEta records a post-factorization pivot: the basis column at slot
// changed, with FTRAN direction w (dense, row space).
func (lu *basisLU) appendEta(slot int, w []float64) {
	pivotAt := -1
	for i, v := range w {
		if v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			if i == slot {
				pivotAt = len(lu.etaIdx)
			}
			lu.etaIdx = append(lu.etaIdx, i)
			lu.etaVal = append(lu.etaVal, v)
		}
	}
	lu.etaSlot = append(lu.etaSlot, slot)
	lu.etaPivot = append(lu.etaPivot, pivotAt)
	lu.etaStart = append(lu.etaStart, len(lu.etaIdx))
}

// ftran solves B w = a for the sparse column a, writing the dense result
// (indexed by basis slot) into dst.
func (lu *basisLU) ftran(dst []float64, a *sparseCol) {
	x := lu.x
	for i := range x {
		x[i] = 0
	}
	for k, r := range a.rows {
		x[r] = a.vals[k]
	}
	lu.solveLU(dst, x)
	lu.applyEtas(dst)
}

// ftranDense is ftran for a dense right-hand side (row space); src is left
// untouched.
func (lu *basisLU) ftranDense(dst, src []float64) {
	x := lu.x
	copy(x, src)
	lu.solveLU(dst, x)
	lu.applyEtas(dst)
}

// solveLU performs the L then U triangular solves. x is the scattered
// right-hand side in row space and is consumed (zeroed); the solution lands
// in dst indexed by basis slot.
func (lu *basisLU) solveLU(dst, x []float64) {
	m := lu.m
	// L-solve in row space: after step t, x[pivotRow[t]] is settled.
	for t := 0; t < m; t++ {
		xr := x[lu.pivotRow[t]]
		if xr == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			continue
		}
		rows, vals := lu.lRows[t], lu.lVals[t]
		for k, i := range rows {
			x[i] -= vals[k] * xr
		}
	}
	// Backward U-solve, scattering contributions back into row space.
	for t := m - 1; t >= 0; t-- {
		r := lu.pivotRow[t]
		v := x[r]
		x[r] = 0
		if v == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			dst[lu.ord[t]] = 0
			continue
		}
		xt := v / lu.uDiag[t]
		dst[lu.ord[t]] = xt
		rows, vals := lu.uRows[t], lu.uVals[t]
		for k, i := range rows {
			x[i] -= vals[k] * xt
		}
	}
}

// applyEtas applies the eta file in pivot order to the slot-space vector w.
func (lu *basisLU) applyEtas(w []float64) {
	for k, slot := range lu.etaSlot {
		if w[slot] == 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
			continue
		}
		wr := w[slot] / lu.etaVal[lu.etaPivot[k]]
		pivotAt := lu.etaPivot[k]
		for p := lu.etaStart[k]; p < lu.etaStart[k+1]; p++ {
			if p == pivotAt {
				continue
			}
			w[lu.etaIdx[p]] -= lu.etaVal[p] * wr
		}
		w[slot] = wr
	}
}

// btran solves yᵀB = cᵀ: dst receives y in row space; c is indexed by basis
// slot and left untouched.
func (lu *basisLU) btran(dst, c []float64) {
	m := lu.m
	x := lu.x
	copy(x, c)
	// Transposed eta file, reverse order.
	for k := len(lu.etaSlot) - 1; k >= 0; k-- {
		slot := lu.etaSlot[k]
		pivotAt := lu.etaPivot[k]
		s := 0.0
		for p := lu.etaStart[k]; p < lu.etaStart[k+1]; p++ {
			if p == pivotAt {
				continue
			}
			if v := x[lu.etaIdx[p]]; v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				s += lu.etaVal[p] * v
			}
		}
		x[slot] = (x[slot] - s) / lu.etaVal[pivotAt]
	}
	// Uᵀ-solve forward in step space.
	z := lu.z
	for t := 0; t < m; t++ {
		s := x[lu.ord[t]]
		rows, vals := lu.uRows[t], lu.uVals[t]
		for k, i := range rows {
			if v := z[lu.rowStep[i]]; v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				s -= vals[k] * v
			}
		}
		z[t] = s / lu.uDiag[t]
	}
	// Lᵀ-solve backward into row space.
	for t := m - 1; t >= 0; t-- {
		s := z[t]
		rows, vals := lu.lRows[t], lu.lVals[t]
		for k, i := range rows {
			if v := dst[i]; v != 0 { //vmalloc:nondet-ok structural zero test on stored LU coefficients; zeros are created exactly, never computed
				s -= vals[k] * v
			}
		}
		dst[lu.pivotRow[t]] = s
	}
}
