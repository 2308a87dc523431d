package presolve_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"vmalloc/internal/lp"
	"vmalloc/internal/presolve"
	"vmalloc/internal/relax"
	"vmalloc/internal/testutil/lpdomain"
	"vmalloc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/reduce_golden.txt")

const reduceGoldenFile = "testdata/reduce_golden.txt"

// goldenCase is one fixed-seed reduction input.
type goldenCase struct {
	name string
	p    *lp.Problem
	opts *presolve.Options
}

// goldenCases returns the corpus TestReduceGolden pins: LP-bound domains
// (fresh, along a need-update trajectory, thresholded, memory-infeasible),
// branch-and-bound style integral reductions with bound fixings, the
// substitution-free rule set, and a slice of the random-park corpus.
func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(name string, p *lp.Problem, opts *presolve.Options) {
		cs = append(cs, goldenCase{name, p, opts})
	}
	for s := 0; s < lpdomain.Shards; s++ {
		for seed := int64(1); seed <= 3; seed++ {
			d := lpdomain.New(s, seed)
			add(fmt.Sprintf("domain/s%d/seed%d", s, seed), relax.Encode(d.P).LP, nil)
		}
	}
	d := lpdomain.New(1, 11)
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 8; k++ {
		d.Apply(d.NextUpdate(rng))
		d.Apply(d.NextUpdate(rng))
		add(fmt.Sprintf("trajectory/%d", k), relax.Encode(d.P).LP, nil)
	}
	for _, th := range []float64{0.3, 0.5} {
		add(fmt.Sprintf("threshold/%g", th), relax.Encode(lpdomain.Threshold(lpdomain.New(2, 5).P, th)).LP, nil)
	}
	tight := lpdomain.New(3, 7).P
	for j := range tight.Services {
		tight.Services[j].ReqAgg[workload.Mem] *= 2.5
		tight.Services[j].ReqElem[workload.Mem] *= 2.5
	}
	add("infeasible-mem", relax.Encode(tight).LP, nil)

	for seed := int64(1); seed <= 4; seed++ {
		enc := relax.Encode(workload.Generate(workload.Scenario{Hosts: 3, Services: 6, COV: 0.5, Slack: 0.5, Seed: seed}))
		integral := make([]bool, enc.LP.NumVars())
		for j := 0; j < enc.J; j++ {
			for h := 0; h < enc.H; h++ {
				integral[enc.EVar(j, h)] = true
			}
		}
		add(fmt.Sprintf("integral/root/%d", seed), enc.LP, &presolve.Options{Integral: integral})
		// A branch-and-bound child: service 0 pinned to host seed%H, so its
		// sibling placements cascade to zero.
		child := *enc.LP
		child.Lower = make([]float64, child.NumVars())
		child.Upper = append([]float64(nil), enc.LP.Upper...)
		child.Lower[enc.EVar(0, int(seed)%enc.H)] = 1
		child.Upper[enc.EVar(1, 0)] = 0
		add(fmt.Sprintf("integral/child/%d", seed), &child, &presolve.Options{Integral: integral})
	}
	for seed := int64(1); seed <= 2; seed++ {
		add(fmt.Sprintf("nosubst/%d", seed), relax.Encode(lpdomain.New(0, seed).P).LP, &presolve.Options{DisableSubst: true})
	}
	for i, scn := range parkScenarios() {
		if i%9 == 0 {
			add(fmt.Sprintf("park/%d", i), relax.Encode(workload.Generate(scn)).LP, nil)
		}
	}
	return cs
}

// reduceDigest hashes everything a reduction exposes: outcome, counters,
// the reduced model bit for bit, and the postsolved primal, objective and
// full-space basis of the reduced model's solve (which covers the
// postsolve record stack).
func reduceDigest(t *testing.T, c goldenCase) string {
	t.Helper()
	red, err := presolve.Reduce(c.p, c.opts)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	h := sha256.New()
	ints := func(xs ...int) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	ints(int(red.Outcome()))
	st := red.Stats()
	ints(st.RowsBefore, st.RowsAfter, st.ColsBefore, st.ColsAfter, st.NNZBefore, st.NNZAfter,
		st.FixedCols, st.DroppedRows, st.SubstCols, st.BoundsTightened, st.DoubletonSlacks)
	var sol *lp.Solution
	switch red.Outcome() {
	case presolve.Reduced:
		q := red.Problem()
		floats(h, q.Obj)
		floats(h, q.Lower)
		floats(h, q.Upper)
		floats(h, q.B)
		for _, s := range q.Sense {
			ints(int(s))
		}
		ints(q.Cols.M, q.Cols.N, q.MaxIter)
		ints(q.Cols.ColPtr...)
		ints(q.Cols.RowIdx...)
		floats(h, q.Cols.Val)
		rsol, err := lp.SolveSparse(q)
		if err != nil {
			t.Fatalf("%s: reduced solve: %v", c.name, err)
		}
		ints(int(rsol.Status), rsol.Iters)
		if sol, err = red.Postsolve(rsol); err != nil {
			t.Fatalf("%s: postsolve: %v", c.name, err)
		}
	case presolve.Solved:
		if sol, err = red.Postsolve(nil); err != nil {
			t.Fatalf("%s: postsolve: %v", c.name, err)
		}
	}
	if sol != nil {
		ints(int(sol.Status))
		floats(h, sol.X)
		floats(h, []float64{sol.Objective})
		if sol.Basis != nil {
			basic, nonbasic := sol.Basis.Export()
			ints(basic...)
			for _, s := range nonbasic {
				ints(int(s))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func floats(h hash.Hash, xs []float64) {
	binary.Write(h, binary.LittleEndian, int64(len(xs)))
	for _, x := range xs {
		binary.Write(h, binary.LittleEndian, math.Float64bits(x))
	}
}

// TestReduceGolden pins Reduce bit for bit on a fixed-seed corpus, so any
// change to which reductions fire, their order or their arithmetic shows
// up here; bookkeeping and storage changes must leave every digest in
// testdata/reduce_golden.txt intact. Rewrite the file (-update) only for a
// deliberate change of presolve's results.
func TestReduceGolden(t *testing.T) {
	cases := goldenCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = c.name + " " + reduceDigest(t, c)
	}
	if *updateGolden {
		if err := os.WriteFile(reduceGoldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(reduceGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, corpus %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("reduction changed: got %q, want %q", got[i], want[i])
		}
	}
}
