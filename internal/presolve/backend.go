// Backend wraps any lp.Backend with the reduction pipeline, making
// presolve+solve+postsolve a drop-in solver for relax, hvp's LPBOUND
// bracket, and exp.LPRoster. The warm-basis token it hands out is the
// REDUCED model's basis: re-solving the identical problem reduces
// identically, so the token installs directly on the next reduced solve —
// which is exactly the RRND-then-RRNZ roster pattern. A token from a
// differently-shaped problem fails the install shape check inside the inner
// solver and costs only a cold start. Use Reduce/Postsolve directly when
// the full-space basis is needed instead.

package presolve

import "vmalloc/internal/lp"

// Backend is a presolving lp.Backend. The zero value wraps the in-tree
// sparse simplex.
type Backend struct {
	// Inner solves the reduced models; nil means lp.Simplex.
	Inner lp.Backend
	// Opts configures every reduction (nil = defaults).
	Opts *Options
}

func (b Backend) inner() lp.Backend {
	if b.Inner == nil {
		return lp.Simplex{}
	}
	return b.Inner
}

// Name implements lp.Backend.
func (b Backend) Name() string { return "presolve+" + b.inner().Name() }

// Solve implements lp.Backend.
func (b Backend) Solve(p *lp.Problem) (*lp.Solution, error) { return b.SolveWarm(p, nil) }

// SolveWarm implements lp.Backend: reduce, solve the reduced model (warm
// when the token fits), postsolve the primal, and return the reduced basis
// as the next warm token.
func (b Backend) SolveWarm(p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	red, err := Reduce(p, b.Opts)
	if err != nil {
		return nil, err
	}
	return red.solve(warm, b.inner().SolveWarm)
}

// solve finishes a backend solve of the reduction: outcomes presolve
// settled are returned directly, a reduced model is solved by inner
// (warm-started from warm) and its primal postsolved to full space, with
// the reduced basis as the next warm token (the full-space basis
// reconstruction is reachable via explicit Reduce+Postsolve, so it is not
// built here).
func (r *Reduction) solve(warm *lp.Basis, inner func(*lp.Problem, *lp.Basis) (*lp.Solution, error)) (*lp.Solution, error) {
	switch r.Outcome() {
	case Infeasible:
		return &lp.Solution{Status: lp.Infeasible, Presolve: r.solutionStats()}, nil
	case Unbounded:
		return &lp.Solution{Status: lp.Unbounded, Presolve: r.solutionStats()}, nil
	case Solved:
		full, err := r.Postsolve(nil)
		if err != nil {
			return nil, err
		}
		full.Presolve = r.solutionStats()
		return full, nil
	}
	sol, err := inner(r.Problem(), warm)
	if err != nil {
		return sol, err
	}
	full, err := r.postsolve(sol, false)
	if err != nil {
		return nil, err
	}
	full.Basis = sol.Basis
	full.Refactorizations = sol.Refactorizations
	full.BlandActivations = sol.BlandActivations
	full.Presolve = r.solutionStats()
	return full, nil
}

// SolveWarm is Backend{}.SolveWarm on the workspace's recycled storage:
// the reduction and the simplex both reuse their arrays, and the reduced
// solve skips the dual vectors, which the presolved path never returns.
// Results are identical to Backend{}'s.
func (w *Workspace) SolveWarm(p *lp.Problem, warm *lp.Basis) (*lp.Solution, error) {
	red, err := w.Reduce(p, nil)
	if err != nil {
		return nil, err
	}
	w.lpw.NoDuals = true
	return red.solve(warm, w.lpw.SolveWarm)
}

// solutionStats converts the reduction's counters into the lp-space stats
// attached to the returned Solution.
func (r *Reduction) solutionStats() *lp.PresolveStats {
	st := r.Stats()
	return &lp.PresolveStats{
		RowsEliminated:  st.RowsBefore - st.RowsAfter,
		ColsEliminated:  st.ColsBefore - st.ColsAfter,
		FixedCols:       st.FixedCols,
		DroppedRows:     st.DroppedRows,
		SubstCols:       st.SubstCols,
		BoundsTightened: st.BoundsTightened,
		DoubletonSlacks: st.DoubletonSlacks,
	}
}
