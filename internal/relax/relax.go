// Package relax encodes the service placement and resource allocation
// problem as the paper's MILP (Eqs. 1–7), solves its rational relaxation
// with the internal simplex, solves small instances exactly by branch and
// bound, and implements the randomized-rounding heuristics RRND and RRNZ
// (§3.3) driven by the relaxed solution.
package relax

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"vmalloc/internal/core"
	"vmalloc/internal/lp"
	"vmalloc/internal/milp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/sliceutil"
	"vmalloc/internal/vec"
)

// The relaxation solves route through a pluggable lp.Backend, by default the
// presolving wrapper around the in-tree sparse simplex: the reduction
// pipeline shrinks every warm-started re-solve (RRND/RRNZ rosters, LPBOUND
// brackets) before the simplex runs.
var (
	backendMu sync.RWMutex
	backend   lp.Backend = presolve.Backend{}
)

// SetBackend swaps the LP backend used by all relaxation solves and returns
// the previous one. Safe for concurrent use; intended for experiments and
// tests (e.g. comparing the raw simplex against the presolved path).
func SetBackend(b lp.Backend) lp.Backend {
	backendMu.Lock()
	defer backendMu.Unlock()
	prev := backend
	backend = b
	return prev
}

// CurrentBackend returns the backend used by relaxation solves.
func CurrentBackend() lp.Backend {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backend
}

// Epsilon is the probability floor used by RRNZ (paper uses 0.01).
const Epsilon = 0.01

// Encoding maps problem entities to LP variable indices:
// e_jh at j*H+h, y_jh at J*H + j*H+h, and the minimum yield Y last.
type Encoding struct {
	J, H, D int
	LP      *lp.Problem
}

// EVar returns the variable index of e_jh.
func (enc *Encoding) EVar(j, h int) int { return j*enc.H + h }

// YVar returns the variable index of y_jh.
func (enc *Encoding) YVar(j, h int) int { return enc.J*enc.H + j*enc.H + h }

// MinYieldVar returns the variable index of Y.
func (enc *Encoding) MinYieldVar() int { return 2 * enc.J * enc.H }

// Encode builds the LP for problem p, emitting the constraint matrix
// directly in compressed-sparse-column form: every row touches only a
// handful of the e_jh/y_jh variables, so the sparse encoding is what lets
// lp.SolveSparse run the full-scale relaxation without materializing
// O(rows·vars) dense storage. Elementary rows that can never bind
// (requirement plus need within elementary capacity) are omitted; elementary
// requirements that exceed a node's elementary capacity force e_jh = 0 via a
// bound row.
func Encode(p *core.Problem) *Encoding {
	enc := new(Encoding)
	encodeInto(p, enc, new(cscWriter))
	return enc
}

// encodeInto is Encode on the writer's recycled storage: its problem's
// slices and matrix are reused when large enough, and enc.LP is set to its
// problem. The rows are generated twice, once to count each column's
// entries and once to place them, so no triplet list is ever built; entries
// land in row order within each column, as a SparseBuilder fed the same
// rows would place them.
func encodeInto(p *core.Problem, enc *Encoding, w *cscWriter) {
	prob, csc := &w.prob, &w.csc
	J, H, D := p.NumServices(), p.NumNodes(), p.Dim()
	n := 2*J*H + 1
	*enc = Encoding{J: J, H: H, D: D}
	*prob = lp.Problem{
		Obj:   sliceutil.Fit(prob.Obj, n),
		Upper: sliceutil.Fit(prob.Upper, n),
		Sense: prob.Sense[:0],
		B:     prob.B[:0],
	}
	clear(prob.Obj)
	for i := range prob.Upper {
		prob.Upper[i] = 1
	}
	prob.Obj[2*J*H] = 1 // maximize Y

	w.row = 0
	csc.N = n
	csc.ColPtr = sliceutil.Fit(csc.ColPtr, n+1)
	clear(csc.ColPtr)
	w.count = true
	encodeRows(p, enc, w)
	for j := 0; j < n; j++ {
		csc.ColPtr[j+1] += csc.ColPtr[j]
	}
	csc.M = w.row
	csc.RowIdx = sliceutil.Fit(csc.RowIdx, csc.ColPtr[n])
	csc.Val = sliceutil.Fit(csc.Val, csc.ColPtr[n])
	w.next = append(w.next[:0], csc.ColPtr[:n]...)
	w.count, w.row = false, 0
	encodeRows(p, enc, w)
	prob.Cols = csc
	enc.LP = prob
}

// cscWriter receives the encoding's rows: in the counting pass it tallies
// each column's nonzeros, in the placing pass it stores them and records
// every row's sense and right-hand side. Zero coefficients are dropped in
// both, as SparseBuilder.Add drops them.
type cscWriter struct {
	count bool
	row   int
	csc   lp.CSC
	prob  lp.Problem
	next  []int // placing cursor per column
}

func (w *cscWriter) add(col int, v float64) {
	if v == 0 { //vmalloc:nondet-ok structural zero dropped when building the sparse matrix; exact by construction
		return
	}
	if w.count {
		w.csc.ColPtr[col+1]++
		return
	}
	at := w.next[col]
	w.next[col]++
	w.csc.RowIdx[at] = w.row
	w.csc.Val[at] = v
}

func (w *cscWriter) endRow(s lp.Sense, b float64) {
	if !w.count {
		w.prob.Sense = append(w.prob.Sense, s)
		w.prob.B = append(w.prob.B, b)
	}
	w.row++
}

// encodeRows generates the constraint rows of Eqs. 3–7 in order.
func encodeRows(p *core.Problem, enc *Encoding, w *cscWriter) {
	J, H, D := enc.J, enc.H, enc.D
	// (3) each service on exactly one node.
	for j := 0; j < J; j++ {
		for h := 0; h < H; h++ {
			w.add(enc.EVar(j, h), 1)
		}
		w.endRow(lp.EQ, 1)
	}
	// (4) y_jh <= e_jh.
	for j := 0; j < J; j++ {
		for h := 0; h < H; h++ {
			w.add(enc.YVar(j, h), 1)
			w.add(enc.EVar(j, h), -1)
			w.endRow(lp.LE, 0)
		}
	}
	// (5) elementary capacities: e_jh*r^e_jd + y_jh*n^e_jd <= c^e_hd.
	for j := 0; j < J; j++ {
		s := &p.Services[j]
		for h := 0; h < H; h++ {
			nd := &p.Nodes[h]
			for d := 0; d < D; d++ {
				re, ne, ce := s.ReqElem[d], s.NeedElem[d], nd.Elementary[d]
				if re+ne <= ce {
					continue // can never bind with e,y in [0,1]
				}
				w.add(enc.EVar(j, h), re)
				w.add(enc.YVar(j, h), ne)
				w.endRow(lp.LE, ce)
			}
		}
	}
	// (6) aggregate capacities per node and dimension. Structurally-zero
	// coefficients are dropped (zero-need dimensions contribute no y_jh
	// terms); additionally skip dimensions no service demands at all, whose
	// rows would be empty — 0 <= capacity holds vacuously.
	for h := 0; h < H; h++ {
		nd := &p.Nodes[h]
		for d := 0; d < D; d++ {
			if !hasAgg(p, d) && nd.Aggregate[d] >= 0 {
				continue
			}
			for j := 0; j < J; j++ {
				w.add(enc.EVar(j, h), p.Services[j].ReqAgg[d])
				w.add(enc.YVar(j, h), p.Services[j].NeedAgg[d])
			}
			w.endRow(lp.LE, nd.Aggregate[d])
		}
	}
	// (7) sum_h y_jh >= Y.
	for j := 0; j < J; j++ {
		for h := 0; h < H; h++ {
			w.add(enc.YVar(j, h), 1)
		}
		w.add(enc.MinYieldVar(), -1)
		w.endRow(lp.GE, 0)
	}
}

// hasAgg reports whether any service demands aggregate dimension d.
func hasAgg(p *core.Problem, d int) bool {
	for j := range p.Services {
		if p.Services[j].ReqAgg[d] != 0 || p.Services[j].NeedAgg[d] != 0 { //vmalloc:nondet-ok structural zero tests decide constraint membership; coefficients are stored, not computed
			return true
		}
	}
	return false
}

// Relaxed is the solution of the rational relaxation.
type Relaxed struct {
	// Feasible reports whether the relaxation has a solution at all.
	Feasible bool
	// MinYield is the relaxation's optimal Y: an upper bound on any
	// integral solution's minimum yield (paper §3.2).
	MinYield float64
	// E[j][h] is the fractional placement of service j on node h (nil
	// from Workspace.Bound, which never builds it).
	E [][]float64
	// Basis is the backend's warm-start token (nil when infeasible): with
	// the default presolving backend it is the basis of the REDUCED model,
	// valid for re-solving the relaxation of the identical instance (the
	// RRND-then-RRNZ roster pattern). A token that no longer fits falls
	// back to a cold start inside the solver.
	Basis *lp.Basis
	// Iters/Refactorizations/BlandActivations count the simplex work of
	// this solve and WarmStarted reports whether a supplied basis actually
	// installed; Presolve carries the reduction counters when the backend
	// presolves (nil otherwise). Valid on infeasible outcomes too.
	Iters            int
	Refactorizations int
	BlandActivations int
	WarmStarted      bool
	Presolve         *lp.PresolveStats
}

// fillWork copies the solver-work counters off a backend solution.
func (r *Relaxed) fillWork(sol *lp.Solution) {
	r.Iters = sol.Iters
	r.Refactorizations = sol.Refactorizations
	r.BlandActivations = sol.BlandActivations
	r.WarmStarted = sol.WarmStarted
	r.Presolve = sol.Presolve
}

// SolveRelaxed solves the rational relaxation of the MILP for p through the
// configured backend (presolve + sparse revised simplex by default).
func SolveRelaxed(p *core.Problem) (*Relaxed, error) {
	return SolveRelaxedWarm(p, nil)
}

// SolveRelaxedWarm is SolveRelaxed warm-started from the basis token of a
// previous relaxation solve of the identical instance (a stale token falls
// back to a cold start inside the solver).
func SolveRelaxedWarm(p *core.Problem, warm *lp.Basis) (*Relaxed, error) {
	enc := Encode(p)
	sol, err := CurrentBackend().SolveWarm(enc.LP, warm)
	if err != nil {
		return nil, err
	}
	return relaxed(enc, sol, true)
}

// Workspace solves the relaxation bound of successive instances on recycled
// storage: the encoding's triplets and matrix, presolve's reducer and the
// simplex's buffers survive from one solve to the next, and the J×H
// fractional placement the rounding heuristics read (Relaxed.E) is never
// built. It always presolves, whatever SetBackend installed, and its
// results equal SolveRelaxedWarm's through the default backend. A
// Workspace is not safe for concurrent use; the zero value is ready.
type Workspace struct {
	enc Encoding
	w   cscWriter
	pre presolve.Workspace
}

// Bound solves the relaxation of p warm-started from warm (a token from a
// previous Bound or SolveRelaxedWarm of a similar instance) and returns it
// with E nil.
func (w *Workspace) Bound(p *core.Problem, warm *lp.Basis) (*Relaxed, error) {
	encodeInto(p, &w.enc, &w.w)
	sol, err := w.pre.SolveWarm(w.enc.LP, warm)
	if err != nil {
		return nil, err
	}
	return relaxed(&w.enc, sol, false)
}

// relaxed converts a backend solution of enc into a Relaxed, building the
// fractional placement E only when withE is set.
func relaxed(enc *Encoding, sol *lp.Solution, withE bool) (*Relaxed, error) {
	switch sol.Status {
	case lp.Infeasible:
		r := &Relaxed{}
		r.fillWork(sol)
		return r, nil
	case lp.Optimal:
	default:
		return nil, fmt.Errorf("relax: simplex returned %v", sol.Status)
	}
	r := &Relaxed{Feasible: true, MinYield: sol.X[enc.MinYieldVar()], Basis: sol.Basis}
	r.fillWork(sol)
	if !withE {
		return r, nil
	}
	r.E = make([][]float64, enc.J)
	for j := 0; j < enc.J; j++ {
		r.E[j] = make([]float64, enc.H)
		for h := 0; h < enc.H; h++ {
			v := sol.X[enc.EVar(j, h)]
			if v < 0 {
				v = 0
			}
			r.E[j][h] = v
		}
	}
	return r, nil
}

// SolveExact solves the MILP exactly by branch and bound. Intended for small
// instances (the paper notes MILP solve time is exponential). The returned
// result carries the optimal placement and its evaluated minimum yield.
func SolveExact(p *core.Problem, opts *milp.Options) (*core.Result, error) {
	enc := Encode(p)
	bins := make([]int, 0, enc.J*enc.H)
	for j := 0; j < enc.J; j++ {
		for h := 0; h < enc.H; h++ {
			bins = append(bins, enc.EVar(j, h))
		}
	}
	sol, err := milp.Solve(&milp.Problem{LP: *enc.LP, Binary: bins}, opts)
	if err != nil {
		return nil, err
	}
	if !sol.HasIncumbent {
		return &core.Result{}, nil
	}
	pl := core.NewPlacement(enc.J)
	for j := 0; j < enc.J; j++ {
		for h := 0; h < enc.H; h++ {
			if sol.X[enc.EVar(j, h)] > 0.5 {
				pl[j] = h
				break
			}
		}
	}
	return core.EvaluatePlacement(p, pl), nil
}

// roundPlacement samples a placement from fractional probabilities. For each
// service, nodes are drawn with probability proportional to probs[j][h];
// nodes where the service's rigid requirements do not fit (given services
// placed so far) get their probability zeroed and the draw repeats, as in
// paper §3.3.1. It returns an incomplete placement if some service fits
// nowhere with positive probability.
func roundPlacement(p *core.Problem, probs [][]float64, rng *rand.Rand) core.Placement {
	J, H := p.NumServices(), p.NumNodes()
	pl := core.NewPlacement(J)
	loads := make([]vec.Vec, H)
	for h := range loads {
		loads[h] = vec.New(p.Dim())
	}
	for j := 0; j < J; j++ {
		s := &p.Services[j]
		w := append([]float64(nil), probs[j]...)
		for {
			total := 0.0
			for _, x := range w {
				total += x
			}
			if total <= 1e-15 {
				return pl // service j cannot be placed
			}
			r := rng.Float64() * total
			h := 0
			for ; h < H-1; h++ {
				r -= w[h]
				if r < 0 {
					break
				}
			}
			if s.FitsRequirements(&p.Nodes[h], loads[h]) {
				pl[j] = h
				loads[h].AccumAdd(s.ReqAgg)
				break
			}
			w[h] = 0
		}
	}
	return pl
}

// RRND is Randomized Rounding: it samples placements from the relaxed e_jh
// values and returns the evaluated result of the first complete sample found
// within attempts tries, or a failed result.
func RRND(p *core.Problem, rel *Relaxed, attempts int, rng *rand.Rand) *core.Result {
	if !rel.Feasible {
		return &core.Result{}
	}
	if attempts <= 0 {
		attempts = 1
	}
	for a := 0; a < attempts; a++ {
		pl := roundPlacement(p, rel.E, rng)
		if pl.Complete() {
			if res := core.EvaluatePlacement(p, pl); res.Solved {
				return res
			}
		}
	}
	return &core.Result{}
}

// RRNZ is Randomized Rounding with No Zero probabilities: every zero e_jh is
// raised to Epsilon before sampling, so services retain a small chance of
// landing on any node that can host them (§3.3.2).
func RRNZ(p *core.Problem, rel *Relaxed, attempts int, rng *rand.Rand) *core.Result {
	if !rel.Feasible {
		return &core.Result{}
	}
	probs := make([][]float64, len(rel.E))
	for j := range rel.E {
		probs[j] = make([]float64, len(rel.E[j]))
		for h, v := range rel.E[j] {
			if v < Epsilon {
				v = Epsilon
			}
			probs[j][h] = v
		}
	}
	if attempts <= 0 {
		attempts = 1
	}
	for a := 0; a < attempts; a++ {
		pl := roundPlacement(p, probs, rng)
		if pl.Complete() {
			if res := core.EvaluatePlacement(p, pl); res.Solved {
				return res
			}
		}
	}
	return &core.Result{}
}

// UpperBound returns the relaxation's optimal minimum yield, which bounds
// every feasible integral solution from above, or -1 if the relaxation is
// infeasible.
func UpperBound(p *core.Problem) (float64, error) {
	rel, err := SolveRelaxed(p)
	if err != nil {
		return 0, err
	}
	if !rel.Feasible {
		return -1, nil
	}
	return math.Min(rel.MinYield, 1), nil
}
