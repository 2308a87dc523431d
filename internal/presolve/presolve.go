// Package presolve shrinks linear programs before the simplex ever runs: a
// reduction pipeline over the CSC form removes fixed variables, empty rows
// and columns, turns singleton rows into bound tightenings, substitutes
// columns out through equality rows (singleton columns are the zero-fill
// case), drops redundant rows, fixes whole rows when their activity bounds
// force every variable, and iterates bound propagation to a fixpoint. The
// reduced model is solved by any lp.Backend; a postsolve stack then
// reconstructs the full primal solution and a full-space simplex basis.
//
// The paper's relaxation (Eqs. 1–7) is the design target: its per-service
// placement equalities (Eq. 3) and min-yield linking rows (Eq. 7) are what
// force the two-phase simplex into a long artificial-elimination phase 1.
// Equality substitution of Eq. 3 plus the >=-to-<= normalization performed
// at emit leave a reduced model whose initial slack basis is feasible, so
// warm-started re-solves (RRND/RRNZ rosters, branch-and-bound children)
// skip phase 1 entirely. In branch and bound the bound fixings applied by
// internal/milp cascade: a branched e_jh = 1 forces the sibling placements
// to 0, which empties the linked y-rows, which fixes their columns, so
// child nodes presolve smaller every level down the tree.
package presolve

import (
	"fmt"
	"math"
	"sort"

	"vmalloc/internal/lp"
	"vmalloc/internal/sliceutil"
)

// Options tunes a reduction.
type Options struct {
	// Integral marks variables that must take integer values in the
	// surrounding MILP (len = NumVars, or nil for a pure LP). Presolve
	// rounds their bounds inward and detects fractional forced values as
	// infeasibility, which is what lets branch-and-bound nodes die in
	// presolve instead of in the simplex.
	Integral []bool
	// MaxPasses caps the outer reduce-to-fixpoint loop (0 = default 10).
	MaxPasses int
	// DisableSubst turns off equality substitution (singleton-column and
	// general fill-capped), leaving only the row/bound reductions. Used by
	// tests to isolate rules; production callers keep it on.
	DisableSubst bool
}

// Outcome classifies a reduction.
type Outcome int

const (
	// Reduced means a nonempty model remains: solve Problem(), then pass
	// the solution to Postsolve.
	Reduced Outcome = iota
	// Solved means presolve eliminated everything; Postsolve(nil) yields
	// the full solution directly.
	Solved
	// Infeasible means presolve proved no feasible point exists.
	Infeasible
	// Unbounded means presolve proved the objective unbounded above.
	Unbounded
)

// String returns a human-readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Reduced:
		return "reduced"
	case Solved:
		return "solved"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats counts what the pipeline removed.
type Stats struct {
	RowsBefore, RowsAfter int
	ColsBefore, ColsAfter int
	NNZBefore, NNZAfter   int
	FixedCols             int // variables fixed (equal bounds, empty, forced)
	DroppedRows           int // empty + singleton + redundant + forcing rows
	SubstCols             int // columns substituted out through equality rows
	BoundsTightened       int // bound updates from singletons + propagation
	DoubletonSlacks       int // inequality doubletons eliminated via an explicit slack column
}

// Reduction is the result of Reduce: the reduced problem plus everything
// Postsolve needs to translate a reduced solution back to the original
// variable and row space.
type Reduction struct {
	outcome Outcome
	stats   Stats

	orig      *lp.Problem
	origCols  *lp.CSC // pristine sparse view of orig's constraint matrix
	n0, m0    int
	origSense []lp.Sense
	origL     []float64 // resolved original bounds (nil fields expanded)
	origU     []float64

	reduced *lp.Problem
	colKeep []int // reduced col -> reducer col (>= n0: synthetic doubleton slack)
	colMap  []int // reducer col -> reduced col, or -1
	rowKeep []int // reduced row -> original row
	rowMap  []int // original row -> reduced row, or -1

	// synRow[k] is the original inequality row whose slack became synthetic
	// column n0+k during doubleton elimination. In the full model that
	// column IS the row's slack, which is how postsolve maps it back.
	synRow []int

	// pivotOf[i] is the column substituted out through original EQ row i
	// (-1 otherwise). When the row survives (morphed to an inequality) its
	// reduced slack stands in for the pivot column; when it was dropped the
	// pivot column is basic in the full row.
	pivotOf []int

	records []record
}

// record is one postsolve step, undone in reverse application order.
type record struct {
	kind  recKind
	col   int
	val   float64 // recFix: the fixed value
	row   int     // recSubst: the host equality row
	a, b  float64 // recSubst: pivot coefficient and row rhs at subst time
	terms []entry // recSubst: the row's other coefficients at subst time
}

type recKind int8

const (
	recFix recKind = iota
	recSubst
)

// entry is one matrix coefficient, indexed by original column id.
type entry struct {
	j int
	v float64
}

// Outcome reports how the reduction ended.
func (r *Reduction) Outcome() Outcome { return r.outcome }

// Stats reports what was removed.
func (r *Reduction) Stats() Stats { return r.stats }

// Problem returns the reduced model (valid only when Outcome() == Reduced).
// Its objective omits the constant contributed by eliminated variables;
// Postsolve recomputes the true objective from the original coefficients.
func (r *Reduction) Problem() *lp.Problem { return r.reduced }

// presolve tolerances. Reductions must never perturb the optimum beyond
// what the equivalence tests allow (1e-9 on the objective), so anything
// that cuts the feasible region (forcing, redundancy) uses tolerances well
// inside the solver's own feasTol while bound propagation — which only ever
// removes provably infeasible points — applies a looser improvement
// threshold purely to reach its fixpoint quickly.
const (
	feasTol     = 1e-7  // infeasibility detection, matching the solvers
	redTol      = 1e-9  // redundant-row slack margin
	forceTol    = 1e-12 // forcing-row activity margin
	propEps     = 1e-7  // minimum bound improvement worth recording
	dropCoefTol = 1e-12 // coefficients this small after cancellation vanish
	intRound    = 1e-9  // integrality rounding margin
)

// substitution limits: a pivot may appear in at most maxPivotRows other
// rows and the merge may create at most maxSubstFill new nonzeros, so
// substitution can never densify the model faster than it shrinks it.
const (
	maxPivotRows = 8
	maxSubstFill = 100
)

// reducer is the mutable working state of one reduction, always indexed by
// original row/column ids. Its arrays are recycled across reductions by a
// Workspace.
type reducer struct {
	n, m     int       // current counts; n grows past nOrig as slacks are added
	nOrig    int       // columns in the input problem
	synRow   []int     // synthetic column n0+k -> its source inequality row
	rows     [][]entry // per-row coefficients, sorted by column
	sense    []lp.Sense
	b        []float64
	rowAlive []bool
	colAlive []bool
	l, u, c  []float64
	integral []bool
	pivotOf  []int
	records  []record
	stats    Stats
	opts     Options

	// colRows[j] lists exactly the alive rows holding column j, each with
	// the coefficient stored in that row (unordered: every consumer either
	// counts it or touches each row independently). Every change to a row's
	// entries updates it in step, so a list is safe to hold across other
	// queries; the two callers that edit rows while iterating a list
	// (fixCol, substitute) leave that list itself untouched until done.
	colRows [][]colEntry

	// actMin/actMax memoize each row's activity bounds while actOK holds;
	// a change to the row's entries or to a bound of one of its columns
	// clears the flag, so a memoized value is always the one activity would
	// recompute.
	actMin, actMax []float64
	actOK          []bool

	// assumeImplied makes the next substitute call skip its implied-bound
	// derivation: vubPass has already proven both sides, and the check costs
	// a row-activity scan per row containing the pivot.
	assumeImplied bool

	// Recycled storage: the initial rows and column lists are windows of
	// one arena each, substitution merges run through mergeBuf, the
	// pivot's other terms through othersBuf, and substitution records keep
	// their terms in termArena.
	rowArena  []entry
	colArena  []colEntry
	mergeBuf  []entry
	othersBuf []entry
	termArena []entry
	rowLen    []int

	infeasible bool
	unbounded  bool
}

// Reduce runs the pipeline on a validated problem (either matrix form; the
// dense form is sparsified first) and returns the reduction.
func Reduce(p *lp.Problem, opts *Options) (*Reduction, error) {
	return new(Workspace).Reduce(p, opts)
}

// Workspace reduces successive problems while recycling the reducer's
// arrays and the reduced model's storage. The Reduction its Reduce returns
// (and that Reduction's Problem) stays valid only until the next Reduce or
// SolveWarm on the same Workspace. A Workspace is not safe for concurrent
// use; the zero value is ready.
type Workspace struct {
	ps  reducer
	red Reduction
	// lpw solves the reduced models in SolveWarm.
	lpw lp.Workspace
	// Reduced-model storage reused by emit.
	obj, lower, upper, bs []float64
	senses                []lp.Sense
	csc                   lp.CSC
	prob                  lp.Problem
}

// Reduce is the package-level Reduce on recycled storage.
func (w *Workspace) Reduce(p *lp.Problem, opts *Options) (*Reduction, error) {
	r, err := w.reduce(p, opts)
	// The working rows and column lists are dead once the reduction is
	// built; dropping them releases the storage of every row or list that
	// outgrew its arena window, which a long-lived Workspace would
	// otherwise keep.
	clear(w.ps.rows)
	clear(w.ps.colRows)
	return r, err
}

func (w *Workspace) reduce(p *lp.Problem, opts *Options) (*Reduction, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts == nil {
		opts = &Options{}
	}
	if opts.Integral != nil && len(opts.Integral) != p.NumVars() {
		return nil, fmt.Errorf("presolve: |Integral|=%d, want %d", len(opts.Integral), p.NumVars())
	}
	sp := p.Sparsify()
	ps := &w.ps
	ps.reset(sp, *opts)
	ps.run()

	r := &w.red
	*r = Reduction{
		orig:      p,
		origCols:  sp.Cols,
		n0:        ps.nOrig,
		m0:        ps.m,
		origSense: append(r.origSense[:0], p.Sense...),
		origL:     sliceutil.Fit(r.origL, ps.nOrig),
		origU:     sliceutil.Fit(r.origU, ps.nOrig),
		pivotOf:   ps.pivotOf,
		records:   ps.records,
		stats:     ps.stats,
		synRow:    ps.synRow,
		colKeep:   r.colKeep[:0],
		rowKeep:   r.rowKeep[:0],
		colMap:    r.colMap[:0],
		rowMap:    r.rowMap[:0],
	}
	for j := 0; j < ps.nOrig; j++ {
		r.origL[j] = 0
		if p.Lower != nil {
			r.origL[j] = p.Lower[j]
		}
		r.origU[j] = math.Inf(1)
		if p.Upper != nil {
			r.origU[j] = p.Upper[j]
		}
	}

	switch {
	case ps.infeasible:
		r.outcome = Infeasible
		return r, nil
	case ps.unbounded:
		r.outcome = Unbounded
		return r, nil
	}

	// With no constraint rows left the remainder is a box LP: every column
	// moves to its objective-preferred bound (or proves unboundedness).
	if ps.aliveRows() == 0 {
		for j := 0; j < ps.n; j++ {
			if !ps.colAlive[j] {
				continue
			}
			if ps.c[j] > 0 {
				if math.IsInf(ps.u[j], 1) {
					r.outcome = Unbounded
					return r, nil
				}
				ps.fixCol(j, ps.u[j])
			} else {
				ps.fixCol(j, ps.l[j])
			}
		}
	}
	r.records = ps.records
	r.stats = ps.stats

	if ps.aliveCols() == 0 {
		// Rows may remain alive only if every one is satisfied by the
		// constants; the empty-row rule already verified that (or flagged
		// infeasibility) for rows it saw, so sweep any stragglers.
		for i := 0; i < ps.m; i++ {
			if ps.rowAlive[i] {
				ps.checkEmptyRow(i)
			}
		}
		if ps.infeasible {
			r.outcome = Infeasible
			return r, nil
		}
		r.outcome = Solved
		r.colMap = fullMap(r.colMap, ps.n, nil)
		r.rowMap = fullMap(r.rowMap, ps.m, nil)
		r.stats = ps.stats
		return r, nil
	}

	r.outcome = Reduced
	w.emit(r, p.MaxIter)
	r.stats = ps.stats
	r.stats.RowsAfter = len(r.rowKeep)
	r.stats.ColsAfter = len(r.colKeep)
	r.stats.NNZAfter = r.reduced.Cols.NNZ()
	return r, nil
}

// fullMap returns m resized to n with every index sent to -1 except those
// listed in keep, which get their position.
func fullMap(m []int, n int, keep []int) []int {
	m = sliceutil.Fit(m, n)
	for i := range m {
		m[i] = -1
	}
	for pos, id := range keep {
		m[id] = pos
	}
	return m
}

// reset loads p into the reducer, reusing every array it already holds.
// Rows come out of the column-major input already sorted by column; a row
// that is not (only possible with duplicate entries, which the sparse
// builders never produce) is sorted as before.
func (ps *reducer) reset(p *lp.Problem, opts Options) {
	n, m := p.NumVars(), p.NumRows()
	csc := p.Cols
	nnz := csc.NNZ()
	*ps = reducer{
		n: n, m: m, nOrig: n,
		synRow:    ps.synRow[:0],
		rows:      sliceutil.Fit(ps.rows, m),
		sense:     append(ps.sense[:0], p.Sense...),
		b:         append(ps.b[:0], p.B...),
		rowAlive:  sliceutil.Fit(ps.rowAlive, m),
		colAlive:  sliceutil.Fit(ps.colAlive, n),
		l:         sliceutil.Fit(ps.l, n),
		u:         sliceutil.Fit(ps.u, n),
		c:         append(ps.c[:0], p.Obj...),
		integral:  opts.Integral,
		pivotOf:   sliceutil.Fit(ps.pivotOf, m),
		records:   ps.records[:0],
		opts:      opts,
		colRows:   sliceutil.Fit(ps.colRows, n),
		actMin:    sliceutil.Fit(ps.actMin, m),
		actMax:    sliceutil.Fit(ps.actMax, m),
		actOK:     sliceutil.Fit(ps.actOK, m),
		rowArena:  sliceutil.Fit(ps.rowArena, nnz),
		colArena:  sliceutil.Fit(ps.colArena, nnz),
		mergeBuf:  ps.mergeBuf[:0],
		othersBuf: ps.othersBuf[:0],
		termArena: ps.termArena[:0],
		rowLen:    ps.rowLen,
	}
	for i := 0; i < m; i++ {
		ps.rowAlive[i] = true
		ps.pivotOf[i] = -1
		ps.actOK[i] = false
	}
	for j := 0; j < n; j++ {
		ps.colAlive[j] = true
		ps.l[j] = 0
		if p.Lower != nil {
			ps.l[j] = p.Lower[j]
		}
		ps.u[j] = math.Inf(1)
		if p.Upper != nil {
			ps.u[j] = p.Upper[j]
		}
	}
	// Row windows of the arena, sized by a count pass.
	rowLen := sliceutil.Fit(ps.rowLen, m+1)
	for i := range rowLen {
		rowLen[i] = 0
	}
	ps.rowLen = rowLen
	for _, i := range csc.RowIdx {
		rowLen[i+1]++
	}
	for i := 0; i < m; i++ {
		rowLen[i+1] += rowLen[i]
	}
	for i := 0; i < m; i++ {
		lo, hi := rowLen[i], rowLen[i+1]
		ps.rows[i] = ps.rowArena[lo:lo:hi]
	}
	for j := 0; j < n; j++ {
		for k := csc.ColPtr[j]; k < csc.ColPtr[j+1]; k++ {
			i := csc.RowIdx[k]
			ps.rows[i] = append(ps.rows[i], entry{j, csc.Val[k]})
		}
	}
	for j := 0; j < n; j++ {
		lo, hi := csc.ColPtr[j], csc.ColPtr[j+1]
		ps.colRows[j] = ps.colArena[lo:lo:hi]
	}
	for i := range ps.rows {
		row := ps.rows[i]
		if !strictlySorted(row) {
			sort.Slice(row, func(a, b int) bool { return row[a].j < row[b].j })
		}
		for k, e := range row {
			if k > 0 && row[k-1].j == e.j {
				continue // duplicate entry: findCol-style lookups see the first
			}
			ps.colRows[e.j] = append(ps.colRows[e.j], colEntry{i, e.v})
		}
		ps.stats.NNZBefore += len(row)
	}
	ps.stats.RowsBefore = m
	ps.stats.ColsBefore = n
}

// strictlySorted reports whether row's columns strictly increase.
func strictlySorted(row []entry) bool {
	for k := 1; k < len(row); k++ {
		if row[k-1].j >= row[k].j {
			return false
		}
	}
	return true
}

func (ps *reducer) aliveRows() int {
	c := 0
	for _, a := range ps.rowAlive {
		if a {
			c++
		}
	}
	return c
}

func (ps *reducer) aliveCols() int {
	c := 0
	for _, a := range ps.colAlive {
		if a {
			c++
		}
	}
	return c
}

// run iterates every rule to a fixpoint (or the pass cap).
func (ps *reducer) run() {
	// Integral bounds round inward once up front; later tightenings
	// re-round as they land.
	for j := 0; j < ps.n; j++ {
		if ps.roundIntegral(j) {
			ps.boundsMoved(j)
		}
		if ps.infeasible {
			return
		}
	}
	maxPasses := ps.opts.MaxPasses
	if maxPasses <= 0 {
		maxPasses = 10
	}
	for pass := 0; pass < maxPasses; pass++ {
		changed := ps.fixPass()
		changed = ps.rowPass() || changed
		if !ps.opts.DisableSubst {
			changed = ps.vubPass() || changed
			changed = ps.substPass() || changed
		}
		if ps.infeasible || ps.unbounded || !changed {
			return
		}
	}
}

// fixPass fixes columns whose bounds have collapsed and columns that appear
// in no alive row (set to their objective-preferred bound).
func (ps *reducer) fixPass() bool {
	changed := false
	for j := 0; j < ps.n; j++ {
		if !ps.colAlive[j] {
			continue
		}
		if ps.l[j] > ps.u[j]+feasTol {
			ps.infeasible = true
			return changed
		}
		if ps.u[j] <= ps.l[j] {
			v := ps.l[j]
			if ps.u[j] < v {
				v = (ps.l[j] + ps.u[j]) / 2 // tolerance overlap: split it
			}
			ps.fixCol(j, v)
			changed = true
			continue
		}
		if len(ps.colRows[j]) == 0 {
			// Empty column: only the objective cares about it.
			if ps.c[j] > 0 {
				if math.IsInf(ps.u[j], 1) {
					ps.unbounded = true
					return changed
				}
				ps.fixCol(j, ps.u[j])
			} else {
				ps.fixCol(j, ps.l[j])
			}
			changed = true
		}
	}
	return changed
}

// rowPass applies the row rules: empty rows, singleton rows, infeasibility
// and redundancy from activity bounds, forcing rows, and bound propagation.
func (ps *reducer) rowPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] {
			continue
		}
		row := ps.rows[i]
		switch len(row) {
		case 0:
			ps.checkEmptyRow(i)
			changed = true
			continue
		case 1:
			ps.singletonRow(i, row[0])
			changed = true
			continue
		}
		if ps.infeasible {
			return changed
		}

		minAct, maxAct := ps.rowActivity(i)
		b, scale := ps.b[i], 1+math.Abs(ps.b[i])
		switch ps.sense[i] {
		case lp.LE:
			if minAct > b+feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if maxAct <= b+redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if minAct >= b-forceTol*scale && !math.IsInf(minAct, 0) {
				ps.forceRow(i, row, true)
				changed = true
				continue
			}
		case lp.GE:
			if maxAct < b-feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if minAct >= b-redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if maxAct <= b+forceTol*scale && !math.IsInf(maxAct, 0) {
				ps.forceRow(i, row, false)
				changed = true
				continue
			}
		case lp.EQ:
			if minAct > b+feasTol*scale || maxAct < b-feasTol*scale {
				ps.infeasible = true
				return changed
			}
			if minAct >= b-redTol*scale && maxAct <= b+redTol*scale {
				ps.dropRow(i)
				changed = true
				continue
			}
			if minAct >= b-forceTol*scale && !math.IsInf(minAct, 0) {
				ps.forceRow(i, row, true)
				changed = true
				continue
			}
			if maxAct <= b+forceTol*scale && !math.IsInf(maxAct, 0) {
				ps.forceRow(i, row, false)
				changed = true
				continue
			}
		}
		changed = ps.propagate(i, row, minAct, maxAct) || changed
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// checkEmptyRow verifies 0 {sense} b and drops the row (or flags
// infeasibility).
func (ps *reducer) checkEmptyRow(i int) {
	b, scale := ps.b[i], 1+math.Abs(ps.b[i])
	bad := false
	switch ps.sense[i] {
	case lp.LE:
		bad = b < -feasTol*scale
	case lp.GE:
		bad = b > feasTol*scale
	case lp.EQ:
		bad = math.Abs(b) > feasTol*scale
	}
	if bad {
		ps.infeasible = true
		return
	}
	ps.dropRow(i)
}

// singletonRow turns a one-entry row into a bound on its variable and drops
// the row.
func (ps *reducer) singletonRow(i int, e entry) {
	if math.Abs(e.v) < dropCoefTol {
		ps.removeEntry(i, e.j)
		ps.checkEmptyRow(i)
		return
	}
	v := ps.b[i] / e.v
	switch {
	case ps.sense[i] == lp.EQ:
		if v < ps.l[e.j]-feasTol || v > ps.u[e.j]+feasTol {
			ps.infeasible = true
			return
		}
		ps.tighten(e.j, v, v)
	case (ps.sense[i] == lp.LE) == (e.v > 0):
		// a·x <= b with a>0, or a·x >= b with a<0: upper bound.
		ps.tighten(e.j, math.Inf(-1), v)
	default:
		ps.tighten(e.j, v, math.Inf(1))
	}
	if !ps.infeasible {
		ps.dropRow(i)
	}
}

// forceRow fires when a row's activity bound meets its rhs exactly: every
// variable is fixed at the bound that produced the extreme activity.
// minSide selects the minimum-activity bounds (a>0 -> lower, a<0 -> upper);
// otherwise the maximum-activity ones.
func (ps *reducer) forceRow(i int, row []entry, minSide bool) {
	// dropRow detaches the row without touching its storage, so row still
	// lists the entries to fix.
	ps.dropRow(i)
	for _, e := range row {
		if !ps.colAlive[e.j] {
			continue
		}
		atLower := (e.v > 0) == minSide
		if atLower {
			ps.fixCol(e.j, ps.l[e.j])
		} else {
			ps.fixCol(e.j, ps.u[e.j])
		}
	}
}

// activity returns the minimum and maximum of the row's left-hand side over
// the current bounds (±Inf when an unbounded variable contributes).
func (ps *reducer) activity(row []entry) (minAct, maxAct float64) {
	for _, e := range row {
		if e.v > 0 {
			minAct += e.v * ps.l[e.j]
			maxAct += e.v * ps.u[e.j] // Inf stays Inf
		} else {
			minAct += e.v * ps.u[e.j]
			maxAct += e.v * ps.l[e.j]
		}
	}
	return minAct, maxAct
}

// rowActivity is activity(rows[i]) through the per-row memo.
func (ps *reducer) rowActivity(i int) (minAct, maxAct float64) {
	if !ps.actOK[i] {
		ps.actMin[i], ps.actMax[i] = ps.activity(ps.rows[i])
		ps.actOK[i] = true
	}
	return ps.actMin[i], ps.actMax[i]
}

// propagate derives implied bounds for each variable from the row's
// residual activity and tightens when the improvement is material. The
// derived bounds hold for every feasible point, so propagation can never
// cut the optimum.
func (ps *reducer) propagate(i int, row []entry, minAct, maxAct float64) bool {
	changed := false
	b := ps.b[i]
	le := ps.sense[i] == lp.LE || ps.sense[i] == lp.EQ
	ge := ps.sense[i] == lp.GE || ps.sense[i] == lp.EQ
	for _, e := range row {
		if math.Abs(e.v) < dropCoefTol {
			continue
		}
		// Residual activity with e.j's own contribution removed.
		var restMin, restMax float64
		if e.v > 0 {
			restMin, restMax = minAct-e.v*ps.l[e.j], maxAct-e.v*ps.u[e.j]
		} else {
			restMin, restMax = minAct-e.v*ps.u[e.j], maxAct-e.v*ps.l[e.j]
		}
		if le && !math.IsInf(restMin, 0) && !math.IsNaN(restMin) {
			// a_j x_j <= b - restMin
			bound := (b - restMin) / e.v
			if e.v > 0 {
				if bound < ps.u[e.j]-propEps*(1+math.Abs(bound)) {
					ps.tighten(e.j, math.Inf(-1), bound)
					changed = true
				}
			} else if bound > ps.l[e.j]+propEps*(1+math.Abs(bound)) {
				ps.tighten(e.j, bound, math.Inf(1))
				changed = true
			}
		}
		if ge && !math.IsInf(restMax, 0) && !math.IsNaN(restMax) {
			// a_j x_j >= b - restMax
			bound := (b - restMax) / e.v
			if e.v > 0 {
				if bound > ps.l[e.j]+propEps*(1+math.Abs(bound)) {
					ps.tighten(e.j, bound, math.Inf(1))
					changed = true
				}
			} else if bound < ps.u[e.j]-propEps*(1+math.Abs(bound)) {
				ps.tighten(e.j, math.Inf(-1), bound)
				changed = true
			}
		}
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// tighten intersects [lo,hi] into column j's bounds, rounding integral
// columns inward.
func (ps *reducer) tighten(j int, lo, hi float64) {
	moved := false
	if lo > ps.l[j] {
		ps.l[j] = lo
		ps.stats.BoundsTightened++
		moved = true
	}
	if hi < ps.u[j] {
		ps.u[j] = hi
		ps.stats.BoundsTightened++
		moved = true
	}
	if ps.roundIntegral(j) || moved {
		ps.boundsMoved(j)
	}
	if ps.l[j] > ps.u[j]+feasTol {
		ps.infeasible = true
	}
}

// boundsMoved invalidates the activity memo of every row holding column j.
func (ps *reducer) boundsMoved(j int) {
	for _, ce := range ps.colRows[j] {
		ps.actOK[ce.row] = false
	}
}

// roundIntegral rounds an integral column's bounds inward and reports
// whether either moved; a fractional forced value turns into an empty
// domain, caught by the caller.
func (ps *reducer) roundIntegral(j int) bool {
	if ps.integral == nil || j >= len(ps.integral) || !ps.integral[j] {
		return false // synthetic slacks (j >= len) are continuous by construction
	}
	moved := false
	if l := math.Ceil(ps.l[j] - intRound); l > ps.l[j] {
		ps.l[j] = l
		moved = true
	}
	if u := math.Floor(ps.u[j] + intRound); u < ps.u[j] {
		ps.u[j] = u
		moved = true
	}
	if ps.l[j] > ps.u[j]+feasTol {
		ps.infeasible = true
	}
	return moved
}

// fixCol substitutes the constant v for column j everywhere and records the
// fix for postsolve.
func (ps *reducer) fixCol(j int, v float64) {
	for _, ce := range ps.colRows[j] {
		ps.b[ce.row] -= ce.v * v
		ps.dropFromRow(ce.row, j)
	}
	ps.colRows[j] = ps.colRows[j][:0]
	ps.colAlive[j] = false
	ps.records = append(ps.records, record{kind: recFix, col: j, val: v})
	ps.stats.FixedCols++
}

// dropRow marks a row eliminated and detaches it from its columns' lists.
// The row's storage is left as it was, so a caller holding the entries can
// still read them.
func (ps *reducer) dropRow(i int) {
	for _, e := range ps.rows[i] {
		ps.colDetach(e.j, i)
	}
	ps.rowAlive[i] = false
	ps.rows[i] = nil
	ps.actOK[i] = false
	ps.stats.DroppedRows++
}

// colEntry locates column j in an alive row.
type colEntry struct {
	row int
	v   float64
}

// colDetach removes row i from column j's list (a no-op when absent).
func (ps *reducer) colDetach(j, i int) {
	list := ps.colRows[j]
	for k := range list {
		if list[k].row == i {
			last := len(list) - 1
			list[k] = list[last]
			ps.colRows[j] = list[:last]
			return
		}
	}
}

// colSet records row i's new coefficient for column j.
func (ps *reducer) colSet(j, i int, v float64) {
	list := ps.colRows[j]
	for k := range list {
		if list[k].row == i {
			list[k].v = v
			return
		}
	}
}

// findCol binary-searches a sorted row for column j.
func findCol(row []entry, j int) int {
	if k := lowerBound(row, j); k < len(row) && row[k].j == j {
		return k
	}
	return -1
}

// lowerBound returns the first position in a sorted row whose column is at
// least j.
func lowerBound(row []entry, j int) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].j < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dropFromRow deletes column j from row i's entries only; the caller keeps
// column j's list in step.
func (ps *reducer) dropFromRow(i, j int) {
	row := ps.rows[i]
	if k := findCol(row, j); k >= 0 {
		ps.rows[i] = append(row[:k], row[k+1:]...)
		ps.actOK[i] = false
	}
}

// removeEntry deletes column j from row i.
func (ps *reducer) removeEntry(i, j int) {
	ps.dropFromRow(i, j)
	ps.colDetach(j, i)
}

// substPass eliminates columns through equality rows. For each alive EQ row
// it picks the pivot with the fewest other appearances (a singleton column
// is the zero-fill case) under stability and fill caps, replaces the pivot
// by its row-implied expression in every other row and the objective, and
// converts the host row into whichever of the pivot's bound constraints is
// not already implied by the remaining variables' bounds — dropping the row
// outright when both are (the implied-free case).
func (ps *reducer) substPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] || ps.sense[i] != lp.EQ {
			continue
		}
		row := ps.rows[i]
		if len(row) < 2 {
			continue
		}
		maxAbs := 0.0
		for _, e := range row {
			if a := math.Abs(e.v); a > maxAbs {
				maxAbs = a
			}
		}
		// Scan pivot candidates starting at a row-dependent offset so ties
		// rotate: structured models (e.g. the paper's per-service Eq. 3
		// rows, whose candidates all tie) then spread their fill across
		// many rows instead of piling it into the first few columns' rows,
		// which would densify them and slow the basis factorization.
		best, bestCnt := -1, maxPivotRows+1
		start := i % len(row)
		for t := 0; t < len(row); t++ {
			e := row[(start+t)%len(row)]
			a := math.Abs(e.v)
			if a < 1e-7 || a < 1e-2*maxAbs {
				continue // numerically weak pivot
			}
			cnt := len(ps.colRows[e.j]) - 1
			if cnt > maxPivotRows || cnt*(len(row)-1) > maxSubstFill {
				continue
			}
			if cnt < bestCnt {
				best, bestCnt = e.j, cnt
			}
		}
		if best < 0 {
			continue
		}
		if ps.substitute(i, best) {
			changed = true
		}
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// substitute eliminates column piv through EQ row i. Returns false when the
// pivot's bound constraints would both survive (a range row, which the
// Problem form cannot express), leaving the row untouched.
func (ps *reducer) substitute(i, piv int) bool {
	row := ps.rows[i]
	k := findCol(row, piv)
	if k < 0 {
		return false
	}
	a, b := row[k].v, ps.b[i]
	others := append(ps.othersBuf[:0], row[:k]...)
	others = append(others, row[k+1:]...)
	ps.othersBuf = others

	// x_piv = (b - others·x) / a must stay within [l,u]: each side is a
	// linear constraint on the others, kept only if not already implied by
	// their bounds.
	lPiv, uPiv := ps.l[piv], ps.u[piv]
	lowImplied, upImplied := true, true
	rhsLow, rhsUp := b-a*lPiv, 0.0
	if ps.assumeImplied {
		ps.assumeImplied = false
	} else {
		minAct, maxAct := ps.activity(others)
		// Side 1, x_piv >= l:  a>0: others <= b - a*l ;  a<0: others >= b - a*l.
		if a > 0 {
			lowImplied = maxAct <= rhsLow+redTol*(1+math.Abs(rhsLow))
		} else {
			lowImplied = minAct >= rhsLow-redTol*(1+math.Abs(rhsLow))
		}
		// Side 2, x_piv <= u: vacuous when u is infinite.
		upImplied = math.IsInf(uPiv, 1)
		if !upImplied {
			rhsUp = b - a*uPiv
			if a > 0 {
				upImplied = minAct >= rhsUp-redTol*(1+math.Abs(rhsUp))
			} else {
				upImplied = maxAct <= rhsUp+redTol*(1+math.Abs(rhsUp))
			}
		}
		// The host row is not the only source of implied pivot bounds: any
		// other row containing the pivot constrains it too (the textbook
		// implied-free check). When one of them forces a side the host row
		// leaves open, that side's residual constraint is redundant — on the
		// paper's encoding this is what fully deletes the Eq. 3 rows, since
		// y <= e implies every placement pivot's lower bound of zero.
		if !lowImplied || !upImplied {
			impLow, impUp := ps.impliedColBounds(piv, i)
			if !lowImplied && impLow >= lPiv-redTol*(1+math.Abs(lPiv)) {
				lowImplied = true
			}
			if !upImplied && impUp <= uPiv+redTol*(1+math.Abs(uPiv)) {
				upImplied = true
			}
		}
		if !lowImplied && !upImplied {
			return false
		}
	}

	// Rewrite every other row containing the pivot. The pivot's own list
	// is iterated as is and emptied below, once no row holds the pivot.
	for _, ce := range ps.colRows[piv] {
		r := ce.row
		if r == i {
			continue
		}
		f := ce.v / a
		ps.dropFromRow(r, piv)
		ps.mergeRow(r, others, -f)
		ps.b[r] -= f * b
	}
	// And the objective (the constant c_piv*b/a drops; Postsolve recomputes
	// the true objective from the original coefficients).
	if ps.c[piv] != 0 { //vmalloc:nondet-ok structural zero test on stored objective coefficient
		f := ps.c[piv] / a
		for _, e := range others {
			ps.c[e.j] -= f * e.v
		}
		ps.c[piv] = 0
	}
	ps.colAlive[piv] = false
	start := len(ps.termArena)
	ps.termArena = append(ps.termArena, others...)
	ps.records = append(ps.records, record{
		kind: recSubst, col: piv, row: i, a: a, b: b,
		terms: ps.termArena[start:len(ps.termArena):len(ps.termArena)],
	})
	ps.stats.SubstCols++
	ps.pivotOf[i] = piv

	switch {
	case lowImplied && upImplied:
		ps.dropRow(i)
	case lowImplied:
		// Keep x_piv <= u:  a>0: others >= rhsUp ;  a<0: others <= rhsUp.
		ps.rows[i] = append(ps.rows[i][:0], others...)
		ps.actOK[i] = false
		ps.b[i] = rhsUp
		if a > 0 {
			ps.sense[i] = lp.GE
		} else {
			ps.sense[i] = lp.LE
		}
	default:
		// Keep x_piv >= l:  a>0: others <= rhsLow ;  a<0: others >= rhsLow.
		ps.rows[i] = append(ps.rows[i][:0], others...)
		ps.actOK[i] = false
		ps.b[i] = rhsLow
		if a > 0 {
			ps.sense[i] = lp.LE
		} else {
			ps.sense[i] = lp.GE
		}
	}
	// No row holds the pivot any more.
	ps.colRows[piv] = ps.colRows[piv][:0]
	return true
}

// vubPass eliminates doubleton inequality rows — variable-bound rows like
// the paper's Eq. 4 (y_jh - e_jh <= 0) — by introducing the row's slack as
// an explicit column, converting the row to an equality, and substituting
// the bounded variable out through it. Conversion is only paid when both of
// the pivot's bound constraints are implied (by the remaining variables'
// activity or by other rows), so the substitution deletes the row outright
// instead of morphing it back into an inequality. On the paper's encoding
// this removes all H*J Eq. 4 rows: the placement fraction's [0,1] range is
// implied by y,s >= 0 below and the Eq. 3 convexity row above, shrinking
// the 8x64 relaxation from 656 rows to under 150 and with it every
// per-iteration btran/ftran the simplex performs.
func (ps *reducer) vubPass() bool {
	changed := false
	for i := 0; i < ps.m; i++ {
		if !ps.rowAlive[i] || ps.sense[i] == lp.EQ || len(ps.rows[i]) != 2 {
			continue
		}
		row := ps.rows[i]
		if row[0].j == row[1].j {
			continue // degenerate duplicate-column row
		}
		sigma := 1.0 // slack sign: LE gains a slack, GE a surplus
		if ps.sense[i] == lp.GE {
			sigma = -1
		}
		maxAbs := math.Max(math.Abs(row[0].v), math.Abs(row[1].v))
		// Try the lower-fill candidate first and stop at the first that
		// qualifies: the implication check scans every row containing the
		// pivot, so the second candidate is only worth testing when the
		// first fails.
		first := 0
		if len(ps.colRows[row[1].j]) < len(ps.colRows[row[0].j]) {
			first = 1
		}
		best := -1
		for _, t := range [2]int{first, 1 - first} {
			piv, part := row[t], row[1-t]
			if a := math.Abs(piv.v); a < 1e-7 || a < 1e-2*maxAbs {
				continue // numerically weak pivot
			}
			if len(ps.colRows[piv.j])-1 > maxPivotRows {
				continue
			}
			if ps.vubBothImplied(i, piv, part, sigma) {
				best = t
				break
			}
		}
		if best < 0 {
			continue
		}
		piv := row[best].j
		ps.addSlackCol(i, sigma)
		ps.sense[i] = lp.EQ
		// The substitution reuses the implications just proven (via
		// assumeImplied) and deletes the row; the converted row would remain
		// an exact reformulation of the inequality even if it survived.
		ps.assumeImplied = true
		ps.substitute(i, piv)
		changed = true
		if ps.infeasible {
			return changed
		}
	}
	return changed
}

// vubBothImplied reports whether, once doubleton row i gains its slack
// column, substituting piv out would leave both of piv's bound constraints
// implied — the only case worth paying a synthetic column for. This mirrors
// substitute's two-sided test with the prospective slack's [0, inf) range
// folded into the residual activity.
func (ps *reducer) vubBothImplied(i int, piv, part entry, sigma float64) bool {
	k := 0 // part's position in the doubleton row
	if ps.rows[i][1].j == part.j {
		k = 1
	}
	minAct, maxAct := ps.activity(ps.rows[i][k : k+1])
	if sigma > 0 {
		maxAct = math.Inf(1)
	} else {
		minAct = math.Inf(-1)
	}
	a, b := piv.v, ps.b[i]
	lPiv, uPiv := ps.l[piv.j], ps.u[piv.j]
	rhsLow := b - a*lPiv
	var lowImplied bool
	if a > 0 {
		lowImplied = maxAct <= rhsLow+redTol*(1+math.Abs(rhsLow))
	} else {
		lowImplied = minAct >= rhsLow-redTol*(1+math.Abs(rhsLow))
	}
	upImplied := math.IsInf(uPiv, 1)
	if !upImplied {
		rhsUp := b - a*uPiv
		if a > 0 {
			upImplied = minAct >= rhsUp-redTol*(1+math.Abs(rhsUp))
		} else {
			upImplied = maxAct <= rhsUp+redTol*(1+math.Abs(rhsUp))
		}
	}
	if !lowImplied || !upImplied {
		impLow, impUp := ps.impliedColBounds(piv.j, i)
		if !lowImplied && impLow >= lPiv-redTol*(1+math.Abs(lPiv)) {
			lowImplied = true
		}
		if !upImplied && impUp <= uPiv+redTol*(1+math.Abs(uPiv)) {
			upImplied = true
		}
	}
	return lowImplied && upImplied
}

// addSlackCol appends a fresh column holding row i's slack (sigma=+1) or
// surplus (sigma=-1): bounds [0, inf), zero objective, a single entry in
// row i. Postsolve treats the column as the original row's slack when
// rebuilding full-space bases.
func (ps *reducer) addSlackCol(i int, sigma float64) int {
	j := ps.n
	ps.n++
	ps.synRow = append(ps.synRow, i)
	ps.l = append(ps.l, 0)
	ps.u = append(ps.u, math.Inf(1))
	ps.c = append(ps.c, 0)
	ps.colAlive = append(ps.colAlive, true)
	ps.colRows = append(ps.colRows, []colEntry{{i, sigma}})
	ps.rows[i] = append(ps.rows[i], entry{j, sigma}) // j exceeds every id: row stays sorted
	ps.actOK[i] = false
	ps.stats.DoubletonSlacks++
	return j
}

// impliedColBounds returns the tightest bounds on column piv implied by
// alive rows other than skipRow, each evaluated at the other variables'
// residual activity extremes (the same derivation propagate uses, without
// committing the tightened bound). ±Inf when no row constrains a side.
func (ps *reducer) impliedColBounds(piv, skipRow int) (impLow, impUp float64) {
	impLow, impUp = math.Inf(-1), math.Inf(1)
	for _, ce := range ps.colRows[piv] {
		if ce.row == skipRow || math.Abs(ce.v) < dropCoefTol {
			continue
		}
		minAct, maxAct := ps.rowActivity(ce.row)
		var restMin, restMax float64
		if ce.v > 0 {
			restMin, restMax = minAct-ce.v*ps.l[piv], maxAct-ce.v*ps.u[piv]
		} else {
			restMin, restMax = minAct-ce.v*ps.u[piv], maxAct-ce.v*ps.l[piv]
		}
		b := ps.b[ce.row]
		le := ps.sense[ce.row] == lp.LE || ps.sense[ce.row] == lp.EQ
		ge := ps.sense[ce.row] == lp.GE || ps.sense[ce.row] == lp.EQ
		if le && !math.IsInf(restMin, 0) && !math.IsNaN(restMin) {
			bound := (b - restMin) / ce.v
			if ce.v > 0 {
				impUp = math.Min(impUp, bound)
			} else {
				impLow = math.Max(impLow, bound)
			}
		}
		if ge && !math.IsInf(restMax, 0) && !math.IsNaN(restMax) {
			bound := (b - restMax) / ce.v
			if ce.v > 0 {
				impLow = math.Max(impLow, bound)
			} else {
				impUp = math.Min(impUp, bound)
			}
		}
	}
	return impLow, impUp
}

// mergeRow replaces row r by r + f*src over the sorted entries, dropping
// entries that cancel below dropCoefTol, and keeps the touched columns'
// lists in step. The merge runs through mergeBuf and lands back in the
// row's own storage.
func (ps *reducer) mergeRow(r int, src []entry, f float64) {
	if len(src) <= sparseMerge {
		ps.mergeSparse(r, src, f)
		return
	}
	dst := ps.rows[r]
	out := ps.mergeBuf[:0]
	di, si := 0, 0
	for di < len(dst) || si < len(src) {
		switch {
		case si == len(src) || (di < len(dst) && dst[di].j < src[si].j):
			out = append(out, dst[di])
			di++
		case di == len(dst) || src[si].j < dst[di].j:
			if v := f * src[si].v; math.Abs(v) >= dropCoefTol {
				out = append(out, entry{src[si].j, v})
				ps.colRows[src[si].j] = append(ps.colRows[src[si].j], colEntry{r, v})
			}
			si++
		default:
			if v := dst[di].v + f*src[si].v; math.Abs(v) >= dropCoefTol {
				out = append(out, entry{dst[di].j, v})
				ps.colSet(dst[di].j, r, v)
			} else {
				ps.colDetach(dst[di].j, r)
			}
			di++
			si++
		}
	}
	ps.mergeBuf = out
	ps.rows[r] = append(dst[:0], out...)
	ps.actOK[r] = false
}

// sparseMerge is the source length up to which mergeRow edits the row in
// place entry by entry instead of rewriting it: the doubleton
// substitutions of vubPass merge two entries into rows as long as a host's
// whole aggregate-capacity row.
const sparseMerge = 4

// mergeSparse is mergeRow for a short src: each source entry is located by
// binary search and updated, deleted or inserted in place. The arithmetic
// and the resulting row are the merge's exactly.
func (ps *reducer) mergeSparse(r int, src []entry, f float64) {
	row := ps.rows[r]
	for _, e := range src {
		k := lowerBound(row, e.j)
		if k < len(row) && row[k].j == e.j {
			if v := row[k].v + f*e.v; math.Abs(v) >= dropCoefTol {
				row[k].v = v
				ps.colSet(e.j, r, v)
			} else {
				row = append(row[:k], row[k+1:]...)
				ps.colDetach(e.j, r)
			}
			continue
		}
		if v := f * e.v; math.Abs(v) >= dropCoefTol {
			row = append(row, entry{})
			copy(row[k+1:], row[k:])
			row[k] = entry{e.j, v}
			ps.colRows[e.j] = append(ps.colRows[e.j], colEntry{r, v})
		}
	}
	ps.rows[r] = row
	ps.actOK[r] = false
}

// emit builds the reduced lp.Problem. GE rows are normalized to LE by
// negation here: with a nonnegative right-hand side a LE slack enters the
// initial basis directly, while the equivalent GE row would demand a
// phase-1 artificial — the normalization is what lets fully-presolved
// models start phase 2 immediately. Slack values and statuses are identical
// either way (s = |a·x - b|), so basis mapping is unaffected.
func (w *Workspace) emit(r *Reduction, maxIter int) {
	ps := &w.ps
	for j := 0; j < ps.n; j++ {
		if ps.colAlive[j] {
			r.colKeep = append(r.colKeep, j)
		}
	}
	for i := 0; i < ps.m; i++ {
		if ps.rowAlive[i] {
			r.rowKeep = append(r.rowKeep, i)
		}
	}
	r.colMap = fullMap(r.colMap, ps.n, r.colKeep)
	r.rowMap = fullMap(r.rowMap, ps.m, r.rowKeep)
	colMap := r.colMap

	// The matrix is compressed column-wise directly, rows in ascending
	// order within each column and exact zeros dropped, exactly as a
	// SparseBuilder fed row by row would.
	nr, mr := len(r.colKeep), len(r.rowKeep)
	csc := &w.csc
	csc.M, csc.N = mr, nr
	csc.ColPtr = sliceutil.Fit(csc.ColPtr, nr+1)
	for k := range csc.ColPtr {
		csc.ColPtr[k] = 0
	}
	w.senses = sliceutil.Fit(w.senses, mr)
	w.bs = sliceutil.Fit(w.bs, mr)
	nnz := 0
	for rr, i := range r.rowKeep {
		sgn := 1.0
		if ps.sense[i] == lp.GE {
			sgn = -1
			w.senses[rr] = lp.LE
		} else {
			w.senses[rr] = ps.sense[i]
		}
		w.bs[rr] = sgn * ps.b[i]
		for _, e := range ps.rows[i] {
			if sgn*e.v != 0 { //vmalloc:nondet-ok structural zero dropped when building the sparse matrix; exact by construction
				csc.ColPtr[colMap[e.j]+1]++
				nnz++
			}
		}
	}
	for c := 0; c < nr; c++ {
		csc.ColPtr[c+1] += csc.ColPtr[c]
	}
	csc.RowIdx = sliceutil.Fit(csc.RowIdx, nnz)
	csc.Val = sliceutil.Fit(csc.Val, nnz)
	next := sliceutil.Fit(ps.rowLen, nr)
	copy(next, csc.ColPtr[:nr])
	ps.rowLen = next
	for rr, i := range r.rowKeep {
		sgn := 1.0
		if ps.sense[i] == lp.GE {
			sgn = -1
		}
		for _, e := range ps.rows[i] {
			if v := sgn * e.v; v != 0 { //vmalloc:nondet-ok structural zero dropped when building the sparse matrix; exact by construction
				c := colMap[e.j]
				csc.RowIdx[next[c]] = rr
				csc.Val[next[c]] = v
				next[c]++
			}
		}
	}
	w.obj = sliceutil.Fit(w.obj, nr)
	w.lower = sliceutil.Fit(w.lower, nr)
	w.upper = sliceutil.Fit(w.upper, nr)
	for cr, j := range r.colKeep {
		w.obj[cr] = ps.c[j]
		w.lower[cr] = ps.l[j]
		w.upper[cr] = ps.u[j]
	}
	w.prob = lp.Problem{
		Obj:     w.obj,
		Cols:    csc,
		Sense:   w.senses,
		B:       w.bs,
		Upper:   w.upper,
		Lower:   w.lower,
		MaxIter: maxIter,
	}
	r.reduced = &w.prob
}
