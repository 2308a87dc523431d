package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"testing"

	"vmalloc/internal/testutil/lpdomain"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/lpbound_golden.json")

const lpBoundGoldenFile = "testdata/lpbound_golden.json"

// lpBoundEpoch is one epoch of the pinned LP-bound trajectory.
type lpBoundEpoch struct {
	Solved    bool      `json:"solved"`
	MinYield  float64   `json:"min_yield"`
	Placement string    `json:"placement"` // digest of (id, node) pairs
	Bounds    []float64 `json:"bounds"`    // per shard, after the epoch
}

// lpBoundTrajectory drives a four-domain router with the LP bound on over
// the 64-host cov-0.5 park: 128 Google-like services, then epochs of eight
// need updates and a reallocation, with update-free epochs (every domain's
// view repeats unless a rebalance moved services) and a threshold change
// partway.
func lpBoundTrajectory(t *testing.T, epochs int) []lpBoundEpoch {
	t.Helper()
	r, err := New(Config{Nodes: lpdomain.Park(), Shards: lpdomain.Shards, Seed: 1, UseLPBound: true})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for s := 0; s < lpdomain.Shards; s++ {
		for _, svc := range lpdomain.New(s, int64(100+s)).P.Services {
			id, _, _, ok := r.Add(svc, svc)
			if !ok {
				t.Fatalf("preload admission rejected")
			}
			ids = append(ids, id)
		}
	}
	scale := lpdomain.New(0, 100).CPUScale
	rng := rand.New(rand.NewSource(42))
	out := make([]lpBoundEpoch, 0, epochs)
	for e := 0; e < epochs; e++ {
		if e == epochs/2 {
			r.SetThreshold(0.3)
		}
		if e%5 != 4 {
			for u := 0; u < 8; u++ {
				id := ids[rng.Intn(len(ids))]
				cores := lpdomain.Sizes().SampleCores(rng)
				need := float64(cores) * scale
				elem, agg := lpdomain.Update{Cores: cores, Need: need}.Needs()
				if !r.UpdateNeeds(id, elem, agg, elem.Clone(), agg.Clone()) {
					t.Fatalf("update of live id %d failed", id)
				}
			}
		}
		ep := r.Reallocate()
		rec := lpBoundEpoch{Solved: ep.Result.Solved, MinYield: ep.Result.MinYield}
		h := sha256.New()
		for i, id := range ep.IDs {
			binary.Write(h, binary.LittleEndian, [2]int64{int64(id), int64(ep.Result.Placement[i])})
		}
		rec.Placement = hex.EncodeToString(h.Sum(nil))[:32]
		for s := 0; s < r.Shards(); s++ {
			b, ok := r.Engine(s).LastLPBound()
			if !ok {
				t.Fatalf("epoch %d: shard %d computed no LP bound", e, s)
			}
			rec.Bounds = append(rec.Bounds, b)
		}
		out = append(out, rec)
	}
	return out
}

// TestShardedLPBoundGolden pins a K=4 LP-bound trajectory: per-epoch
// min-yields and placements must stay bit-identical and every domain's
// bound equal within 1e-12 relative. The bound is not pinned bit for bit
// because a memo hit returns the previous solve's value where a re-solve
// from the warm basis recomputes the same vertex with its own roundoff.
func TestShardedLPBoundGolden(t *testing.T) {
	got := lpBoundTrajectory(t, 16)
	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(lpBoundGoldenFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(lpBoundGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var want []lpBoundEpoch
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d epochs, golden has %d", len(got), len(want))
	}
	for e := range want {
		g, w := got[e], want[e]
		if g.Solved != w.Solved || math.Float64bits(g.MinYield) != math.Float64bits(w.MinYield) || g.Placement != w.Placement {
			t.Fatalf("epoch %d: solved %v min-yield %v placement %s, golden %v %v %s",
				e, g.Solved, g.MinYield, g.Placement, w.Solved, w.MinYield, w.Placement)
		}
		for s := range w.Bounds {
			if d := math.Abs(g.Bounds[s] - w.Bounds[s]); d > 1e-12*math.Abs(w.Bounds[s]) {
				t.Fatalf("epoch %d shard %d: bound %.17g, golden %.17g", e, s, g.Bounds[s], w.Bounds[s])
			}
		}
	}
}
