package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vmalloc"
	"vmalloc/internal/workload"
)

// Platform of every workload: the daemon's generated park, with the
// daemon's default platform seed so the daemon sees only the requests.
const (
	platformHosts  = 64
	platformCOV    = 0.5
	platformShards = 4
	platformSeed   = 1
	snapshotEvery  = 4096
)

// daemonFlags are the first-boot flags every workload passes to vmallocd:
// its shipped defaults stated explicitly (group-commit fsync, checkpoint
// every 4096 records) plus the park shape.
var daemonFlags = []string{
	"-hosts", "64", "-cov", "0.5", "-shards", "4",
	"-fsync", "batch", "-snapshot-every", "4096",
}

// platformNodes rebuilds the park vmallocd generates for daemonFlags.
func platformNodes() []vmalloc.Node {
	return workload.Platform(workload.Scenario{
		Hosts: platformHosts, COV: platformCOV, Mode: workload.HeteroBoth, Seed: platformSeed,
	}, rand.New(rand.NewSource(platformSeed)))
}

type shape int

const (
	shapeBulk shape = iota
	shapeEpoch
)

// spec is one benchmark workload.
type spec struct {
	Name  string
	Shape shape
	LP    bool // boot with -lpbound
}

var specs = []spec{
	{Name: "bulk-ingest", Shape: shapeBulk},
	{Name: "epoch-reads", Shape: shapeEpoch},
	{Name: "epoch-lp", Shape: shapeEpoch, LP: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) flags() []string {
	f := append([]string(nil), daemonFlags...)
	if s.LP {
		f = append(f, "-lpbound")
	}
	return f
}

// Workload sizes.
const (
	preloadBatch      = 1024
	bulkBatch         = 64
	bulkRoundBase     = 256 // batches per bulk-ingest round, plus a seed jitter
	bulkRoundsPer10s  = 4   // bulk-ingest rounds per 10 s of --seconds
	epochServices     = 128
	epochUpdates      = 8    // need updates before each reallocate
	epochNeedScale    = 0.85 // total CPU need over total CPU capacity
	epochMemSlack     = 0.5  // memory left free by the preload
	epochMemSigma     = 0.5  // log-normal sigma of service memory (the paper uses 1)
	readRate          = 100  // open-loop reads per second on epoch-*
	epochRoundsPer10s = 16   // epoch-* rounds, each on a fresh park, per 10 s of --seconds
	tinyReq           = 0.00002
	tinyNeed          = 0.00002
)

// tinyService is a service so small it always fits.
func tinyService(rng *rand.Rand) vmalloc.Service {
	req := vmalloc.Vec{tinyReq * (0.5 + rng.Float64()), tinyReq * (0.5 + rng.Float64())}
	need := vmalloc.Vec{tinyNeed * (0.5 + rng.Float64()), tinyNeed * (0.5 + rng.Float64())}
	return vmalloc.Service{ReqElem: req, ReqAgg: req.Clone(), NeedElem: need, NeedAgg: need.Clone()}
}

// epochSizes is the paper's Google-like size distribution with a lighter
// memory tail, so parks drawn from different seeds are alike in difficulty.
func epochSizes() *workload.Google {
	g := workload.DefaultGoogle()
	g.MemLogSigma = epochMemSigma
	return g
}

// epochPark draws the epoch workloads' preload: Google-like core counts
// and memory fractions (the paper's generator), scaled to the daemon's
// park so total CPU need is epochNeedScale of capacity. It also returns
// the CPU need per requested core, which need updates reuse.
func epochPark(seed int64) ([]vmalloc.Service, float64) {
	rng := rand.New(rand.NewSource(seed))
	g := epochSizes()
	var capCPU, capMem float64
	for _, n := range platformNodes() {
		capCPU += n.Aggregate[0]
		capMem += n.Aggregate[1]
	}
	cores := make([]int, epochServices)
	mems := make([]float64, epochServices)
	var sumCores, sumMem float64
	for j := range cores {
		cores[j] = g.SampleCores(rng)
		mems[j] = g.SampleMem(rng)
		sumCores += float64(cores[j])
		sumMem += mems[j]
	}
	cpuScale := epochNeedScale * capCPU / sumCores
	memScale := capMem * (1 - epochMemSlack) / sumMem
	svcs := make([]vmalloc.Service, epochServices)
	for j := range svcs {
		need := float64(cores[j]) * cpuScale
		mem := mems[j] * memScale
		svcs[j] = vmalloc.Service{
			ReqElem:  vmalloc.Vec{g.ElemCPUReq(), mem},
			ReqAgg:   vmalloc.Vec{g.ElemCPUReq(), mem},
			NeedElem: vmalloc.Vec{need / float64(cores[j]), 0},
			NeedAgg:  vmalloc.Vec{need, 0},
		}
	}
	return svcs, cpuScale
}

// bulkRoundBatches is a round's fixed batch count: set by the seed, never
// by how fast the daemon ingests, so recovery always replays a park of
// the same size.
func bulkRoundBatches(seed int64) int {
	return bulkRoundBase + int(uint64(seed)%8)
}

// target is a daemon the workload drives: a vmallocd subprocess or the
// traced in-process host.
type target interface {
	URL() string
	// CrashRestart kills the daemon without a checkpoint and restarts it
	// on the same directory, returning the time until it served /readyz.
	CrashRestart() (time.Duration, error)
	// Fresh replaces the daemon with a new one on a fresh directory,
	// returning the time until the new one served /readyz.
	Fresh() (time.Duration, error)
	// Usage reads what the current daemon has spent so far; a window's
	// cost is the difference of the readings at its two ends.
	Usage() (usage, error)
}

// usage is a daemon's cumulative cost: CPU time for a subprocess, journal
// records and rebalance moves for the traced host.
type usage struct {
	CPU     time.Duration
	Records uint64
	Moved   uint64
}

func (u usage) plus(v usage) usage {
	return usage{u.CPU + v.CPU, u.Records + v.Records, u.Moved + v.Moved}
}

func (u usage) minus(v usage) usage {
	return usage{u.CPU - v.CPU, u.Records - v.Records, u.Moved - v.Moved}
}

// op is one applied mutation, kept to replay into a standalone cluster.
type op struct {
	Kind string // batch or update
	IDs  []int
	Svcs []vmalloc.Service
	Need [2]vmalloc.Vec // elementary, aggregate (true and estimate alike)
}

// epochOut is one reallocate response.
type epochOut struct {
	Solved   bool    `json:"solved"`
	MinYield float64 `json:"min_yield"`
}

// roundOut is what one round produced: its measured window, the requests
// sent in it, and what the window cost the daemon.
type roundOut struct {
	Window    interval
	Samples   []sample
	Attempted int
	Failed    int
	Pre       *preload // the park the window opened on
	Ops       []op     // mutations applied in the window, in completion order
	Bodies    [][]byte // admission bodies, for the codec layer
	Epochs    []epochOut
	Admitted  int
	Recovery  time.Duration // restart after SIGKILL to /readyz
	Cost      usage
}

// phase is what the rounds of one run produced, round by round and pooled.
type phase struct {
	Rounds    []*roundOut
	Samples   []sample
	Attempted int
	Failed    int
	Elapsed   time.Duration
	Admitted  int
	Bodies    [][]byte
	Cost      usage
	Speed     speed           // the calibration made before each round
	Setups    []time.Duration // set-ups of rounds after the first
}

// maxBodies caps the admission bodies the codec layer decodes.
const maxBodies = 256

func (p *phase) add(r *roundOut) {
	p.Rounds = append(p.Rounds, r)
	p.Samples = append(p.Samples, r.Samples...)
	p.Attempted += r.Attempted
	p.Failed += r.Failed
	p.Elapsed += r.Window.dur()
	p.Admitted += r.Admitted
	p.Bodies = append(p.Bodies, r.Bodies[:min(len(r.Bodies), maxBodies-len(p.Bodies))]...)
	p.Cost = p.Cost.plus(r.Cost)
}

// Windows returns every round's measured window.
func (p *phase) Windows() []interval {
	out := make([]interval, len(p.Rounds))
	for i, r := range p.Rounds {
		out[i] = r.Window
	}
	return out
}

// Epochs returns every round's epochs.
func (p *phase) Epochs() [][]epochOut {
	out := make([][]epochOut, len(p.Rounds))
	for i, r := range p.Rounds {
		out[i] = r.Epochs
	}
	return out
}

type addReq struct {
	True *vmalloc.Service `json:"true"`
}

type batchReq struct {
	Services []addReq `json:"services"`
}

type batchResp struct {
	Results []struct {
		ID *int `json:"id"`
	} `json:"results"`
	Admitted int `json:"admitted"`
}

type needsReq struct {
	TrueElem vmalloc.Vec `json:"true_elem"`
	TrueAgg  vmalloc.Vec `json:"true_agg"`
	EstElem  vmalloc.Vec `json:"est_elem"`
	EstAgg   vmalloc.Vec `json:"est_agg"`
}

func batchBody(svcs []vmalloc.Service) batchReq {
	b := batchReq{Services: make([]addReq, len(svcs))}
	for i := range svcs {
		b.Services[i] = addReq{True: &svcs[i]}
	}
	return b
}

// admitAll posts svcs as batches and returns the assigned ids in order.
func admitAll(c *client, kind string, svcs []vmalloc.Service, per int, bodies *[][]byte) ([]int, error) {
	var ids []int
	for lo := 0; lo < len(svcs); lo += per {
		hi := min(lo+per, len(svcs))
		data, err := json.Marshal(batchBody(svcs[lo:hi]))
		if err != nil {
			return nil, err
		}
		if bodies != nil {
			*bodies = append(*bodies, data)
		}
		var resp batchResp
		if _, err := c.doRaw(kind, "POST", "/v1/services:batch", data, time.Time{}, &resp); err != nil {
			return nil, err
		}
		if resp.Admitted != hi-lo {
			return nil, fmt.Errorf("batch admitted %d of %d services", resp.Admitted, hi-lo)
		}
		for _, r := range resp.Results {
			ids = append(ids, *r.ID)
		}
	}
	return ids, nil
}

// preload is a workload's set-up traffic: what the park holds before the
// measured window opens.
type preload struct {
	IDs      []int
	Svcs     []vmalloc.Service
	CPUScale float64 // CPU need per requested core (epoch-*)
	Bodies   [][]byte
}

// roundPreload sets up the park of one round: empty for bulk-ingest,
// drawn from the seed and the round for epoch-*.
func roundPreload(sp spec, c *client, seed int64, round int) (*preload, error) {
	if sp.Shape == shapeBulk {
		return &preload{}, nil
	}
	pl := &preload{}
	pl.Svcs, pl.CPUScale = epochPark(roundSeed(seed, round))
	ids, err := admitAll(c, "preload", pl.Svcs, preloadBatch, &pl.Bodies)
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	pl.IDs = ids
	return pl, nil
}

// rounds is how many rounds, each on a fresh park, a run of sp makes.
func (s spec) rounds(seconds int) int {
	per10s := epochRoundsPer10s
	if s.Shape == shapeBulk {
		per10s = bulkRoundsPer10s
	}
	return max(1, seconds*per10s/10)
}

// runPhase drives the measured rounds of sp against t, then checks the
// workload's correctness gates. The first round runs on the daemon and
// park pl that set-up left; every later round on a fresh daemon. Rounds on
// fresh parks keep the park, and so the checkpoint, recovery and solve
// costs, alike from round to round. Every round ends with a SIGKILL and a
// restart on the same directory.
func runPhase(sp spec, t target, c *client, pl *preload, seed int64, seconds int) (*phase, error) {
	ph := &phase{}
	n := sp.rounds(seconds)
	window := time.Duration(seconds) * time.Second / time.Duration(n)
	calReps := (calRepsPerRun + n - 1) / n
	defer func() { c.close() }()
	for r := 0; r < n; r++ {
		if r > 0 {
			c.close()
			up, err := t.Fresh()
			if err != nil {
				return ph, err
			}
			start := time.Now()
			c = c.reconnect(t.URL())
			if pl, err = roundPreload(sp, c, seed, r); err != nil {
				return ph, err
			}
			ph.Setups = append(ph.Setups, up+time.Since(start))
		}
		syscall.Sync()
		cal := calibrate(calReps)
		var ro *roundOut
		var err error
		if sp.Shape == shapeBulk {
			ro, err = bulkRound(t, c, seed, r)
		} else {
			ro, err = epochRound(t, c, pl, roundSeed(seed, r), window)
		}
		ph.Speed.Reps += calReps
		ph.Speed.Took += cal
		if ro != nil {
			ph.add(ro)
		}
		if err == nil {
			c, err = crashRound(t, c, ro)
		}
		if err != nil {
			return ph, err
		}
	}
	if sp.Shape == shapeEpoch {
		return ph, epochGates(ph)
	}
	return ph, nil
}

// crashRound kills the daemon without a checkpoint and restarts it on the
// same directory, timing recovery. It returns a client for the restarted
// daemon. Gates: recovery reproduces the acknowledged park byte for byte,
// every acknowledged admission included.
func crashRound(t target, c *client, ro *roundOut) (*client, error) {
	before, err := c.getBytes("/v1/snapshot")
	if err != nil {
		return c, err
	}
	c.close()
	if ro.Recovery, err = t.CrashRestart(); err != nil {
		return c, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	c = c.reconnect(t.URL())
	after, err := c.getBytes("/v1/snapshot")
	if err != nil {
		return c, err
	}
	if !bytes.Equal(before, after) {
		return c, fmt.Errorf("gate: /v1/snapshot differs after SIGKILL and recovery (%d vs %d bytes)", len(before), len(after))
	}
	var snap vmalloc.ClusterState
	if err := json.Unmarshal(after, &snap); err != nil {
		return c, err
	}
	present := make(map[int]bool, len(snap.Services))
	for _, s := range snap.Services {
		present[s.ID] = true
	}
	for _, o := range ro.Ops {
		for _, id := range o.IDs {
			if !present[id] {
				return c, fmt.Errorf("gate: acknowledged service %d lost across SIGKILL", id)
			}
		}
	}
	return c, nil
}

// bulkRound: two closed-loop connections post 64-service batches until the
// round's fixed service count is admitted.
func bulkRound(t target, c *client, seed int64, round int) (*roundOut, error) {
	nb := bulkRoundBatches(seed)
	ro := &roundOut{Pre: &preload{}}
	var next atomic.Int64
	var mu sync.Mutex // guards ro.Ops, ro.Bodies and acked
	var acked []int
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	// Bodies are encoded before the window opens, so the load process
	// only sends bytes while the daemon is measured.
	svcs := make([][]vmalloc.Service, nb)
	bodies := make([][]byte, nb)
	for b := range bodies {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(round)*10007 + int64(b)))
		svcs[b] = make([]vmalloc.Service, bulkBatch)
		for i := range svcs[b] {
			svcs[b][i] = tinyService(rng)
		}
		var err error
		if bodies[b], err = json.Marshal(batchBody(svcs[b])); err != nil {
			return nil, err
		}
	}
	u0, err := t.Usage()
	if err != nil {
		return nil, err
	}
	c.record(true)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nb {
					return
				}
				svcs, data := svcs[b], bodies[b]
				var resp batchResp
				if _, err := c.doRaw("batch", "POST", "/v1/services:batch", data, time.Time{}, &resp); err != nil {
					fail(err)
					return
				}
				if resp.Admitted != len(svcs) {
					fail(fmt.Errorf("batch admitted %d of %d services", resp.Admitted, len(svcs)))
					return
				}
				ids := make([]int, 0, len(svcs))
				for _, r := range resp.Results {
					ids = append(ids, *r.ID)
				}
				mu.Lock()
				acked = append(acked, ids...)
				ro.Ops = append(ro.Ops, op{Kind: "batch", IDs: ids, Svcs: svcs})
				if len(ro.Bodies) < maxBodies {
					ro.Bodies = append(ro.Bodies, data)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ro.Window = interval{start, time.Now()}
	c.record(false)
	ro.Samples, ro.Attempted, ro.Failed = c.collect()
	ro.Admitted = len(acked)
	u1, err := t.Usage()
	if err != nil {
		return ro, err
	}
	ro.Cost = u1.minus(u0)
	if firstErr != nil {
		return ro, firstErr
	}

	if len(acked) != nb*bulkBatch {
		return ro, fmt.Errorf("gate: %d services acknowledged, want %d", len(acked), nb*bulkBatch)
	}
	return ro, nil
}

// roundSeed derives the seed of one round's park and updates.
func roundSeed(seed int64, round int) int64 { return seed*1009 + int64(round) }

// epochRound: connection 1 runs a closed loop of epochUpdates need updates
// then POST /v1/reallocate; connection 2 runs an open loop of reads at
// readRate. Connection 2 only reads, so each epoch's instance depends only
// on the seed.
func epochRound(t target, c *client, pl *preload, seed int64, window time.Duration) (*roundOut, error) {
	ro := &roundOut{Pre: pl, Bodies: pl.Bodies}
	var firstErr error
	var errOnce sync.Once
	fail := func(err error) { errOnce.Do(func() { firstErr = err }) }

	u0, err := t.Usage()
	if err != nil {
		return nil, err
	}
	c.record(true)
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	wg.Add(2)
	writerDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(writerDone)
		rng := rand.New(rand.NewSource(seed*31 + 7))
		g := epochSizes()
		// A round outlasts its window until it has the epochs min_yield
		// averages, so a slow machine stretches the run instead of failing it.
		for time.Now().Before(deadline) || len(ro.Epochs) < minYieldEpochs {
			for u := 0; u < epochUpdates; u++ {
				j := rng.Intn(len(pl.IDs))
				// A fresh draw from the generator's need distribution, so
				// the park turns over several times in one round.
				cores := g.SampleCores(rng)
				agg := float64(cores) * pl.CPUScale
				elem := vmalloc.Vec{agg / float64(cores), 0}
				aggV := vmalloc.Vec{agg, 0}
				body := needsReq{elem, aggV, elem.Clone(), aggV.Clone()}
				if _, err := c.do("update", "PUT", fmt.Sprintf("/v1/services/%d/needs", pl.IDs[j]), body, time.Time{}, nil); err != nil {
					fail(err)
					return
				}
				ro.Ops = append(ro.Ops, op{Kind: "update", IDs: []int{pl.IDs[j]}, Need: [2]vmalloc.Vec{elem, aggV}})
			}
			var ep epochOut
			if _, err := c.do("reallocate", "POST", "/v1/reallocate", nil, time.Time{}, &ep); err != nil {
				fail(err)
				return
			}
			ro.Epochs = append(ro.Epochs, ep)
		}
	}()
	go func() {
		defer wg.Done()
		paths := []string{"/v1/minyield", "/v1/stats", "/readyz"}
		period := time.Second / readRate
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * period)
			if !due.Before(deadline) {
				select {
				case <-writerDone:
					return
				default: // the round is stretched; keep reading on schedule
				}
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if _, err := c.doRaw("read", "GET", paths[k%len(paths)], nil, due, nil); err != nil {
				fail(err)
				return
			}
		}
	}()
	wg.Wait()
	ro.Window = interval{start, time.Now()}
	c.record(false)
	ro.Samples, ro.Attempted, ro.Failed = c.collect()
	u1, err := t.Usage()
	if err != nil {
		return ro, err
	}
	ro.Cost = u1.minus(u0)
	return ro, firstErr
}

// epochGates checks that every epoch was solved with a min-yield in (0, 1]
// and that enough epochs ran for client.epoch_p90_ms.
func epochGates(ph *phase) error {
	n := 0
	for r, ro := range ph.Rounds {
		for i, ep := range ro.Epochs {
			if !ep.Solved || !(ep.MinYield > 0 && ep.MinYield <= 1) {
				return fmt.Errorf("gate: round %d epoch %d solved=%v min_yield=%g, want solved with min-yield in (0, 1]", r, i, ep.Solved, ep.MinYield)
			}
		}
		n += len(ro.Epochs)
	}
	if n < minSamples(0.9) {
		return fmt.Errorf("gate: only %d epochs ran; client.epoch_p90_ms needs %d", n, minSamples(0.9))
	}
	return nil
}

// yieldDigest hashes, bit for bit, the per-epoch min-yields of the first
// n[r] epochs of every round r.
func yieldDigest(rounds [][]epochOut, n []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for r, eps := range rounds {
		for _, ep := range eps[:n[r]] {
			bits := math.Float64bits(ep.MinYield)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// minYieldEpochs is how many leading epochs of each round min_yield
// averages: a fixed prefix, so the figure repeats exactly for a seed
// however fast epochs run.
const minYieldEpochs = 4

func meanMinYield(rounds [][]epochOut) (float64, error) {
	s, n := 0.0, 0
	for r, eps := range rounds {
		if len(eps) < minYieldEpochs {
			return 0, fmt.Errorf("round %d ran %d epochs; min_yield averages the first %d of each round", r, len(eps), minYieldEpochs)
		}
		for _, ep := range eps[:minYieldEpochs] {
			s += ep.MinYield
			n++
		}
	}
	return s / float64(n), nil
}
