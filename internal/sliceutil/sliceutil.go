// Package sliceutil holds the tiny generic slice helpers shared by the
// buffer-recycling hot paths (solver arenas, engine views).
package sliceutil

// Grow resizes s to n elements, reusing the backing array when its capacity
// suffices and reallocating with ×2 headroom otherwise, so steady-state
// reuse under churn is allocation-free and growth stays amortized O(1).
// Existing elements are preserved on reuse but NOT copied across a
// reallocation: callers rebuild content after growing.
func Grow[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n, 2*n)
	}
	return s[:n]
}

// Fit is Grow for buffers whose size barely moves from one reuse to the
// next (a workspace re-solving problems of one shape): a reallocation
// leaves only 1/8 headroom, so the storage a long-lived workspace retains
// stays close to what it needs.
func Fit[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n, n+n/8)
	}
	return s[:n]
}
