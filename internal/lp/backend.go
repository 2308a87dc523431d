// Solver-backend seam: the rest of the repository (relax, milp, hvp, exp)
// talks to linear-programming solvers through the Backend interface instead
// of calling SolveSparse directly, so the presolving wrapper in
// internal/presolve composes with the in-tree sparse revised simplex
// without touching call sites.

package lp

// Backend solves linear programs in the Problem form. Implementations must
// be safe for concurrent use by multiple goroutines (the experiment harness
// solves instances in parallel through a shared backend).
//
// The *Basis values a backend returns and accepts are backend-internal warm
// tokens: pass a basis back only to the backend that produced it (a
// presolving backend hands out bases of the reduced model, not of p). Every
// backend must degrade gracefully — an unusable warm basis costs a cold
// start, never a wrong answer.
type Backend interface {
	// Name identifies the backend in logs and reports.
	Name() string
	// Solve maximizes p from a cold start.
	Solve(p *Problem) (*Solution, error)
	// SolveWarm maximizes p, warm-starting from the basis of a previous
	// solve of a same-shaped problem when possible.
	SolveWarm(p *Problem, warm *Basis) (*Solution, error)
}

// Simplex is the default Backend: the in-tree sparse revised simplex with LU
// factorization and warm starts (SolveSparse / SolveSparseWarm).
type Simplex struct{}

// Name implements Backend.
func (Simplex) Name() string { return "simplex" }

// Solve implements Backend.
func (Simplex) Solve(p *Problem) (*Solution, error) { return SolveSparse(p) }

// SolveWarm implements Backend.
func (Simplex) SolveWarm(p *Problem, warm *Basis) (*Solution, error) {
	return SolveSparseWarm(p, warm)
}
