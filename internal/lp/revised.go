package lp

import (
	"math"

	"vmalloc/internal/sliceutil"
)

// SolveRevised maximizes the problem with a revised bounded simplex: the
// constraint matrix is stored column-sparse and only the dense m×m basis
// inverse is maintained, so memory is O(m² + nnz) instead of the dense
// tableau's O(m·(n+m)). Results match Solve (both are exact); the revised
// path wins on the large sparse relaxations produced by internal/relax.
// It is SolveSparse without a warm basis.
func SolveRevised(p *Problem) (*Solution, error) {
	return SolveSparseWarm(p, nil)
}

// runRevised solves a validated, lower-shifted problem with the revised
// simplex on rv's recycled storage, warm-starting from warm when it
// installs cleanly (see installBasis) and cold-starting through phase 1
// otherwise. Without duals the Solution's Duals and BoundDuals stay nil.
func runRevised(rv *revised, p *Problem, warm *Basis, duals bool) *Solution {
	rv.reset(p)
	warmed := warm != nil && rv.installBasis(warm)
	if warm != nil && !warmed {
		rv.reset(p) // a failed install leaves partial state behind
	}
	if !warmed {
		if rv.needPhase1() {
			for i := 0; i < rv.m; i++ {
				rv.cost[rv.nReal+i] = -1
			}
			st := rv.iterate()
			if st == IterLimit {
				return &Solution{Status: IterLimit, Iters: rv.iters,
					Refactorizations: rv.refactors, BlandActivations: rv.blandActs}
			}
			if rv.phase1Objective() < -feasTol {
				return &Solution{Status: Infeasible, Iters: rv.iters,
					Refactorizations: rv.refactors, BlandActivations: rv.blandActs}
			}
			rv.driveOutArtificials()
		}
		for j := rv.nReal; j < rv.n; j++ {
			rv.banned[j] = true
			rv.upper[j] = 0
			rv.cost[j] = 0
		}
	}
	for j := 0; j < rv.nStruct; j++ {
		rv.cost[j] = p.Obj[j]
	}
	for j := rv.nStruct; j < rv.nReal; j++ {
		rv.cost[j] = 0
	}

	st := rv.iterate()
	sol := &Solution{Status: st, Iters: rv.iters, WarmStarted: warmed,
		Refactorizations: rv.refactors, BlandActivations: rv.blandActs}
	if st != Optimal {
		return sol
	}
	sol.X = rv.extract()
	for j, c := range p.Obj {
		sol.Objective += c * sol.X[j]
	}
	sol.Basis = rv.captureBasis()
	if !duals {
		return sol
	}
	y := rv.dualVector()
	sol.Duals = make([]float64, rv.m)
	for i := 0; i < rv.m; i++ {
		sol.Duals[i] = rv.rowSign[i] * y[i]
	}
	sol.BoundDuals = make([]float64, rv.nStruct)
	for j := 0; j < rv.nStruct; j++ {
		if rv.status[j] == atUpper {
			if d := rv.reducedCost(j, y); d > 0 {
				sol.BoundDuals[j] = d
			}
		}
	}
	return sol
}

// sparseCol is one column of the equality-form constraint matrix.
type sparseCol struct {
	rows []int
	vals []float64
}

// revised is the revised-simplex state. The basis is represented by a
// sparse LU factorization plus an eta file (see factor.go), never by an
// explicit inverse.
type revised struct {
	m, n    int
	nStruct int
	nReal   int
	cols    []sparseCol // all n columns, sign-normalized
	b       []float64   // sign-normalized rhs
	rowSign []float64
	lu      *basisLU
	xB      []float64 // values of basic variables per row
	basis   []int
	inBasis []int // column -> row, or -1
	status  []varStatus
	upper   []float64
	cost    []float64 // raw costs of the current phase
	banned  []bool
	broken  bool // a refactorization failed; abort with IterLimit

	// Work counters surfaced on the Solution for observability.
	refactors int // LU rebuilds
	blandActs int // Dantzig -> Bland switches after degenerate stalls

	// d holds the reduced costs, maintained incrementally across pivots via
	// the pivot row (alpha = rho·A computed row-wise through the CSR mirror)
	// and recomputed exactly at refactorizations and before any optimality
	// claim, so pricing drift can steer pivot choice but never the result.
	d []float64
	// CSR mirror of the sign-normalized equality-form matrix (structural,
	// slack and artificial columns), for row-wise pricing.
	rowPtr    []int
	rowCol    []int
	rowVal    []float64
	alpha     []float64 // scatter scratch for the pivot-row coefficients
	touched   []int     // columns whose alpha entry was set by updateDuals
	iters     int
	maxIter   int
	scratch   []float64
	yScratch  []float64
	cbScratch []float64

	// Recycled storage: sign-normalized structural values, the one-entry
	// slack and artificial columns, the slack map, basis-column pointers
	// and refreshXB's right-hand side.
	valArena []float64
	unitRows []int
	unitVals []float64
	slackOf  []int
	bcols    []*sparseCol
	rhs      []float64
	csrNext  []int
}

// reset loads p into rv, reusing every array rv already holds, and installs
// the initial slack/artificial basis.
func (rv *revised) reset(p *Problem) {
	m, ns := p.NumRows(), p.NumVars()
	nSlack := 0
	slackOf := sliceutil.Fit(rv.slackOf, m)
	for i, s := range p.Sense {
		if s == EQ {
			slackOf[i] = -1
		} else {
			slackOf[i] = ns + nSlack
			nSlack++
		}
	}
	nReal := ns + nSlack
	n := nReal + m

	lu := rv.lu
	if lu == nil {
		lu = new(basisLU)
	}
	lu.reset(m)
	*rv = revised{
		m: m, n: n, nStruct: ns, nReal: nReal,
		cols:      sliceutil.Fit(rv.cols, n),
		b:         sliceutil.Fit(rv.b, m),
		rowSign:   sliceutil.Fit(rv.rowSign, m),
		lu:        lu,
		xB:        sliceutil.Fit(rv.xB, m),
		basis:     sliceutil.Fit(rv.basis, m),
		inBasis:   sliceutil.Fit(rv.inBasis, n),
		status:    zeroed(rv.status, n),
		upper:     sliceutil.Fit(rv.upper, n),
		cost:      zeroed(rv.cost, n),
		banned:    zeroed(rv.banned, n),
		d:         zeroed(rv.d, n),
		alpha:     zeroed(rv.alpha, n),
		touched:   rv.touched[:0],
		maxIter:   iterCap(p.MaxIter, m, n),
		scratch:   zeroed(rv.scratch, m),
		yScratch:  zeroed(rv.yScratch, m),
		cbScratch: zeroed(rv.cbScratch, m),
		valArena:  rv.valArena,
		unitRows:  sliceutil.Fit(rv.unitRows, 2*m),
		unitVals:  sliceutil.Fit(rv.unitVals, 2*m),
		slackOf:   slackOf,
		bcols:     rv.bcols,
		rhs:       rv.rhs,
		rowPtr:    rv.rowPtr,
		rowCol:    rv.rowCol,
		rowVal:    rv.rowVal,
		csrNext:   rv.csrNext,
	}
	for j := range rv.inBasis {
		rv.inBasis[j] = -1
	}
	for j := 0; j < ns; j++ {
		if p.Upper != nil {
			rv.upper[j] = p.Upper[j]
		} else {
			rv.upper[j] = math.Inf(1)
		}
	}
	for j := ns; j < n; j++ {
		rv.upper[j] = math.Inf(1)
	}

	// Build sign-normalized sparse columns. CSC input shares its row-index
	// slices (never mutated); dense rows are scanned column by column.
	sign := rv.rowSign
	for i := 0; i < m; i++ {
		sign[i] = 1
		if p.B[i] < 0 {
			sign[i] = -1
		}
		rv.b[i] = sign[i] * p.B[i]
	}
	if p.Cols != nil {
		csc := p.Cols
		rv.valArena = sliceutil.Fit(rv.valArena, csc.NNZ())
		for j := 0; j < ns; j++ {
			lo, hi := csc.ColPtr[j], csc.ColPtr[j+1]
			if lo == hi {
				rv.cols[j] = sparseCol{}
				continue
			}
			rows := csc.RowIdx[lo:hi:hi]
			vals := rv.valArena[lo:hi:hi]
			for k, r := range rows {
				vals[k] = sign[r] * csc.Val[lo+k]
			}
			rv.cols[j] = sparseCol{rows: rows, vals: vals}
		}
	} else {
		for j := 0; j < ns; j++ {
			var c sparseCol
			for i := 0; i < m; i++ {
				if v := p.A[i][j]; v != 0 { //vmalloc:nondet-ok structural zero test when building sparse columns
					c.rows = append(c.rows, i)
					c.vals = append(c.vals, sign[i]*v)
				}
			}
			rv.cols[j] = c
		}
	}
	// One-entry slack and artificial columns live in the unit arenas: row
	// i's slack at 2i, its artificial at 2i+1.
	for i := 0; i < m; i++ {
		if sj := slackOf[i]; sj >= 0 {
			v := 1.0
			if p.Sense[i] == GE {
				v = -1
			}
			rv.unitRows[2*i], rv.unitVals[2*i] = i, sign[i]*v
			rv.cols[sj] = sparseCol{rows: rv.unitRows[2*i : 2*i+1 : 2*i+1], vals: rv.unitVals[2*i : 2*i+1 : 2*i+1]}
		}
		rv.unitRows[2*i+1], rv.unitVals[2*i+1] = i, 1
		rv.cols[nReal+i] = sparseCol{rows: rv.unitRows[2*i+1 : 2*i+2 : 2*i+2], vals: rv.unitVals[2*i+1 : 2*i+2 : 2*i+2]}
	}

	// Initial basis: slack when its coefficient is +1, else artificial.
	for i := 0; i < m; i++ {
		rv.xB[i] = rv.b[i]
		col := nReal + i
		if sj := slackOf[i]; sj >= 0 && rv.cols[sj].vals[0] == 1 { //vmalloc:nondet-ok slack coefficients are exactly 1 by construction
			col = sj
			rv.upper[nReal+i] = 0
		}
		rv.basis[i] = col
		rv.inBasis[col] = i
		rv.status[col] = basic
	}
	// The initial basis is all singleton ±1 columns; factorization is
	// trivial and cannot fail.
	rv.lu.factorize(rv.basisCols())
	rv.buildCSR()
}

// zeroed returns s resized to n with every element zero.
func zeroed[S ~[]E, E any](s S, n int) S {
	s = sliceutil.Fit(s, n)
	clear(s)
	return s
}

// buildCSR mirrors the sign-normalized columns row-wise for pricing.
func (rv *revised) buildCSR() {
	counts := zeroed(rv.rowPtr, rv.m+1)
	nnz := 0
	for j := range rv.cols {
		for _, r := range rv.cols[j].rows {
			counts[r+1]++
			nnz++
		}
	}
	rv.rowPtr = counts
	for i := 0; i < rv.m; i++ {
		rv.rowPtr[i+1] += rv.rowPtr[i]
	}
	rv.rowCol = sliceutil.Fit(rv.rowCol, nnz)
	rv.rowVal = sliceutil.Fit(rv.rowVal, nnz)
	next := append(rv.csrNext[:0], rv.rowPtr[:rv.m]...)
	rv.csrNext = next
	for j := range rv.cols {
		c := &rv.cols[j]
		for k, r := range c.rows {
			at := next[r]
			next[r]++
			rv.rowCol[at] = j
			rv.rowVal[at] = c.vals[k]
		}
	}
}

// basisCols collects pointers to the current basis columns, slot by slot.
func (rv *revised) basisCols() []*sparseCol {
	bc := sliceutil.Fit(rv.bcols, rv.m)
	rv.bcols = bc
	for i, col := range rv.basis {
		bc[i] = &rv.cols[col]
	}
	return bc
}

func (rv *revised) needPhase1() bool {
	for _, b := range rv.basis {
		if b >= rv.nReal {
			return true
		}
	}
	return false
}

func (rv *revised) phase1Objective() float64 {
	s := 0.0
	for i, b := range rv.basis {
		if b >= rv.nReal {
			s -= rv.xB[i]
		}
	}
	return s
}

// dualVector returns y = c_B^T · B^{-1} (a sparse BTRAN through the LU
// factors and eta file). The returned slice is scratch storage overwritten
// by the next call.
func (rv *revised) dualVector() []float64 {
	cb := rv.cbScratch
	for i, b := range rv.basis {
		cb[i] = rv.cost[b]
	}
	rv.lu.btran(rv.yScratch, cb)
	return rv.yScratch
}

// reducedCost computes d_j = c_j - y·A_j.
func (rv *revised) reducedCost(j int, y []float64) float64 {
	d := rv.cost[j]
	c := &rv.cols[j]
	for k, r := range c.rows {
		d -= y[r] * c.vals[k]
	}
	return d
}

// ftran computes w = B^{-1} · A_j into rv.scratch (a sparse FTRAN through
// the LU factors and eta file).
func (rv *revised) ftran(j int) []float64 {
	rv.lu.ftran(rv.scratch, &rv.cols[j])
	return rv.scratch
}

func (rv *revised) iterate() Status {
	rv.priceAll()
	stall := 0
	bland := false
	for ; rv.iters < rv.maxIter; rv.iters++ {
		if rv.broken {
			return IterLimit
		}
		if rv.iters%256 == 255 {
			rv.refreshXB() // limit incremental drift
		}
		if bland {
			// Bland's anti-cycling guarantee needs exact reduced-cost
			// signs, not incrementally maintained ones.
			rv.priceAll()
		}
		enter := rv.chooseEntering(bland)
		if enter < 0 {
			// Confirm against exact prices: the incremental reduced costs
			// may have drifted since the last refactorization.
			rv.priceAll()
			if enter = rv.chooseEntering(bland); enter < 0 {
				return Optimal
			}
		}
		dq := rv.d[enter]
		w := rv.ftran(enter)
		row, leaveTo, delta := rv.ratioTest(enter, w)
		if row == -2 {
			return Unbounded
		}
		if row >= 0 {
			rv.updateDuals(enter, row, w)
		}
		rv.apply(enter, w, row, leaveTo, delta)
		if math.Abs(dq)*delta > 1e-12 {
			stall = 0
			bland = false
		} else if stall++; stall > 2*(rv.m+10) {
			if !bland {
				rv.blandActs++
			}
			bland = true
		}
	}
	return IterLimit
}

// priceAll recomputes every reduced cost exactly from y = c_B·B^{-1}.
func (rv *revised) priceAll() {
	y := rv.dualVector()
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic {
			rv.d[j] = 0
		} else {
			rv.d[j] = rv.reducedCost(j, y)
		}
	}
}

// updateDuals carries the reduced costs across the coming pivot (enter
// becomes basic in row) using the pivot row of B^{-1}A: rho = e_rowᵀB^{-1}
// by BTRAN, then alpha = rhoᵀA row-wise through the CSR mirror, touching
// only the columns of rows where rho is nonzero. Must run before the
// pivot's eta is appended.
func (rv *revised) updateDuals(enter, row int, w []float64) {
	ratio := rv.d[enter] / w[row]
	if ratio != 0 { //vmalloc:nondet-ok structural zero test on a stored ratio entry
		e := rv.cbScratch
		for i := range e {
			e[i] = 0
		}
		e[row] = 1
		rho := rv.yScratch
		rv.lu.btran(rho, e)
		touched := rv.touched[:0]
		for i := 0; i < rv.m; i++ {
			ri := rho[i]
			if ri == 0 { //vmalloc:nondet-ok structural zero test on a stored eta value
				continue
			}
			for k := rv.rowPtr[i]; k < rv.rowPtr[i+1]; k++ {
				j := rv.rowCol[k]
				if rv.alpha[j] == 0 { //vmalloc:nondet-ok structural zero test on a stored pricing value
					touched = append(touched, j)
				}
				rv.alpha[j] += ri * rv.rowVal[k]
			}
		}
		// Each column's reduced cost moves once, by its final alpha; the
		// columns are independent, so the visiting order does not matter.
		for _, j := range touched {
			if a := rv.alpha[j]; a != 0 { //vmalloc:nondet-ok structural zero test on a stored pricing value
				rv.d[j] -= ratio * a
				rv.alpha[j] = 0
			}
		}
		rv.touched = touched
	}
	rv.d[enter] = 0
}

func (rv *revised) chooseEntering(bland bool) int {
	best, bestScore := -1, costTol
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == basic || rv.banned[j] || rv.upper[j] == 0 { //vmalloc:nondet-ok upper bound exactly 0 means fixed-at-zero variable; exact by construction
			continue
		}
		d := rv.d[j]
		var score float64
		if rv.status[j] == atLower && d > costTol {
			score = d
		} else if rv.status[j] == atUpper && d < -costTol {
			score = -d
		} else {
			continue
		}
		if bland {
			return j
		}
		if score > bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// ratioTest mirrors the dense solver's bounded ratio test over the computed
// direction w = B^{-1}A_enter.
func (rv *revised) ratioTest(enter int, w []float64) (row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if rv.status[enter] == atUpper {
		dir = -1
	}
	limit := math.Inf(1)
	if u := rv.upper[enter]; !math.IsInf(u, 1) {
		limit = u
	}
	row, leaveTo = -1, atLower
	for i := 0; i < rv.m; i++ {
		a := w[i] * dir
		if math.Abs(a) < pivotTol {
			continue
		}
		var ratio float64
		var to varStatus
		if a > 0 {
			ratio = rv.xB[i] / a
			to = atLower
		} else {
			u := rv.upper[rv.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			ratio = (u - rv.xB[i]) / -a
			to = atUpper
		}
		if ratio < -1e-9 {
			ratio = 0
		}
		if ratio < limit-1e-12 {
			limit = ratio
			row, leaveTo = i, to
		}
	}
	if math.IsInf(limit, 1) {
		return -2, atLower, 0
	}
	return row, leaveTo, limit
}

func (rv *revised) apply(enter int, w []float64, row int, leaveTo varStatus, delta float64) {
	dir := 1.0
	if rv.status[enter] == atUpper {
		dir = -1
	}
	if delta != 0 { //vmalloc:nondet-ok structural zero test: an exactly-zero step is a no-op update
		for i := 0; i < rv.m; i++ {
			rv.xB[i] -= w[i] * dir * delta
			if rv.xB[i] < 0 && rv.xB[i] > -zeroClampT {
				rv.xB[i] = 0
			}
		}
	}
	if row == -1 {
		if rv.status[enter] == atLower {
			rv.status[enter] = atUpper
		} else {
			rv.status[enter] = atLower
		}
		return
	}
	newVal := delta
	if rv.status[enter] == atUpper {
		newVal = rv.upper[enter] - delta
	}
	old := rv.basis[row]
	rv.status[old] = leaveTo
	rv.inBasis[old] = -1

	// Record the basis change as an eta; refactorize once the file grows.
	rv.lu.appendEta(row, w)

	rv.basis[row] = enter
	rv.inBasis[enter] = row
	rv.status[enter] = basic
	rv.xB[row] = newVal
	if rv.lu.nEtas() >= refactorEvery {
		rv.refactorize()
	}
}

// refactorize rebuilds the LU factors from the current basis and resets the
// incrementally maintained reduced costs against the fresh factors. A
// failure (numerically singular basis, which pivot-size guarantees should
// prevent) marks the solver broken so iterate aborts instead of diverging.
func (rv *revised) refactorize() {
	rv.refactors++
	if !rv.lu.factorize(rv.basisCols()) {
		rv.broken = true
		return
	}
	rv.priceAll()
}

func (rv *revised) driveOutArtificials() {
	for i := 0; i < rv.m; i++ {
		if rv.basis[i] < rv.nReal {
			continue
		}
		// Find a real nonbasic column with a nonzero entry in row i of
		// B^{-1}A.
		piv := -1
		var wPiv []float64
		for j := 0; j < rv.nReal; j++ {
			if rv.status[j] == basic {
				continue
			}
			w := rv.ftran(j)
			if math.Abs(w[i]) > 1e-7 {
				piv = j
				wPiv = append([]float64(nil), w...)
				break
			}
		}
		if piv < 0 {
			continue // redundant row: artificial stays basic at ~0
		}
		// Degenerate pivot at value 0 (or the variable's current bound).
		val := 0.0
		if rv.status[piv] == atUpper {
			val = rv.upper[piv]
		}
		old := rv.basis[i]
		rv.status[old] = atLower
		rv.inBasis[old] = -1
		rv.lu.appendEta(i, wPiv)
		rv.basis[i] = piv
		rv.inBasis[piv] = i
		rv.status[piv] = basic
		rv.xB[i] = val
		if rv.lu.nEtas() >= refactorEvery {
			rv.refactorize()
		}
	}
}

// refreshXB recomputes the basic values from scratch:
// x_B = B^{-1}·(b − Σ_{j at upper} A_j·u_j), countering incremental drift.
func (rv *revised) refreshXB() {
	rv.rhs = sliceutil.Fit(rv.rhs, rv.m)
	r := rv.rhs
	copy(r, rv.b)
	for j := 0; j < rv.n; j++ {
		if rv.status[j] == atUpper && rv.upper[j] != 0 { //vmalloc:nondet-ok structural zero test on a stored bound
			c := &rv.cols[j]
			u := rv.upper[j]
			for k, row := range c.rows {
				r[row] -= c.vals[k] * u
			}
		}
	}
	rv.lu.ftranDense(rv.scratch, r)
	for i := 0; i < rv.m; i++ {
		s := rv.scratch[i]
		if s < 0 && s > -feasTol {
			s = 0
		}
		rv.xB[i] = s
	}
}

// extract returns the structural part of the current primal point.
func (rv *revised) extract() []float64 {
	x := make([]float64, rv.nStruct)
	for j := 0; j < rv.nStruct; j++ {
		if rv.status[j] == atUpper {
			x[j] = rv.upper[j]
		}
	}
	for i, b := range rv.basis {
		if b >= rv.nStruct {
			continue
		}
		v := rv.xB[i]
		if v < 0 && v > -feasTol {
			v = 0
		}
		x[b] = v
	}
	return x
}
