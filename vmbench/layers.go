package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"

	"vmalloc"
	"vmalloc/internal/core"
	"vmalloc/internal/hvp"
	"vmalloc/internal/relax"
	"vmalloc/internal/server"
)

// opKinds are the request kinds the per-layer HTTP and store metrics split
// by.
var opKinds = []string{"batch", "update", "reallocate", "read"}

// setLayerPct sets a per-layer percentile; without ten samples beyond it
// the metric reads 0 and its note says why.
func (r *report) setLayerPct(name string, xs []float64, q float64, unit string) {
	v, ok := percentile(xs, q)
	if !ok {
		r.set(name, 0, unit, fmt.Sprintf("n=%d, too few for this percentile", len(xs)))
		return
	}
	r.set(name, v, unit, fmt.Sprintf("n=%d", len(xs)))
}

func (r *report) setRatio(name string, q ratio, unit string) {
	r.set(name, q.Value(), unit, q.String())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil // a file compacted away mid-walk just does not count
	})
	return n
}

// runTraced repeats the workload against the in-process traced daemon and
// derives the per-layer metrics from its spans, its epochs and standalone
// calls into the layers.
func runTraced(sp spec, cfg config, runDir string, u *untraced, client *report) (*report, error) {
	rec := &recorder{}
	h, err := openHost(filepath.Join(runDir, "traced"), sp, rec)
	if err != nil {
		return nil, err
	}
	defer func() { h.close() }()
	c := newClient(h.URL(), true, "r")
	pl, err := roundPreload(sp, c, cfg.seed, 0)
	if err != nil {
		c.close()
		return nil, err
	}
	ph, err := runPhase(sp, h, c, pl, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if sp.Shape == shapeEpoch {
		// Rounds run for a fixed time, so the two runs compare the epochs
		// both reached in each round.
		ue, te := u.ph.Epochs(), ph.Epochs()
		if len(ue) != len(te) {
			return nil, fmt.Errorf("gate: untraced run had %d rounds, traced %d", len(ue), len(te))
		}
		n := make([]int, len(te))
		for r := range n {
			n[r] = min(len(ue[r]), len(te[r]))
		}
		du, dt := yieldDigest(ue, n), yieldDigest(te, n)
		if du != dt {
			return nil, fmt.Errorf("gate: min-yield digest of epochs %v per round differs: untraced %016x, traced %016x", n, du, dt)
		}
		fmt.Printf("gate: min-yield digest of epochs %v per round %016x matches the untraced run\n", n, du)
	}
	spans := rec.snapshot()
	if err := writeSpans(cfg, sp, ph.Samples, spans); err != nil {
		return nil, err
	}

	r := newReport()
	windows := ph.Windows()
	inWindow := func(s span) bool {
		for _, w := range windows {
			if !s.Start.Before(w.Start) && !s.End.After(w.End) {
				return true
			}
		}
		return false
	}
	byReq := map[string][]interval{}
	var reads []interval
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "store.") || !inWindow(s) {
			continue
		}
		if s.ReqID != "" {
			byReq[s.ReqID] = append(byReq[s.ReqID], s.iv())
		} else if s.Name == "store.read" {
			reads = append(reads, s.iv())
		}
	}
	// HTTP self time is the client span minus its store calls. Reads carry
	// no context into the store; connection 2 has one read in flight at a
	// time, so a read's store call is the one inside its client span.
	self := map[string][]float64{}
	storeMs := map[string][]float64{}
	var reqBytes, respBytes []float64
	writes := 0
	for _, s := range ph.Samples {
		if s.Kind != "read" {
			writes++
		}
		reqBytes = append(reqBytes, float64(s.ReqBytes))
		respBytes = append(respBytes, float64(s.RespBytes))
		iv := interval{s.Sent, s.Done}
		kids := byReq[s.ReqID]
		if s.Kind == "read" {
			kids = nil
			for _, rd := range reads {
				if !rd.Start.Before(iv.Start) && !rd.End.After(iv.End) {
					kids = append(kids, rd)
				}
			}
		}
		self[s.Kind] = append(self[s.Kind], ms(selfTime(iv, kids)))
		for _, k := range kids {
			storeMs[s.Kind] = append(storeMs[s.Kind], ms(k.dur()))
		}
	}
	for _, k := range opKinds {
		r.setLayerPct("http.self_ms."+k+".p50", self[k], 0.5, "ms")
		r.setLayerPct("http.self_ms."+k+".p99", self[k], 0.99, "ms")
	}
	r.set("http.req_bytes.mean", mean(reqBytes), "B", fmt.Sprintf("n=%d", len(reqBytes)))
	r.set("http.resp_bytes.mean", mean(respBytes), "B", fmt.Sprintf("n=%d", len(respBytes)))

	if err := codecLayer(r, h, ph.Bodies); err != nil {
		return nil, err
	}
	for _, k := range opKinds {
		r.setLayerPct("store."+k+"_ms.p50", storeMs[k], 0.5, "ms")
		r.setLayerPct("store."+k+"_ms.p99", storeMs[k], 0.99, "ms")
	}
	rc, err := clusterLayer(r, sp, ph.Rounds)
	if err != nil {
		return nil, err
	}
	journalLayer(r, spans, inWindow, writes, ph.Cost.Records, h)
	epochLayers(r, rec.eps, ph.Cost.Moved)
	if sp.Shape == shapeEpoch {
		my, err := meanMinYield(ph.Epochs())
		if err != nil {
			return nil, err
		}
		r.set("engine.min_yield", my, "yield", fmt.Sprintf("mean of the first %d epochs of each of %d rounds", minYieldEpochs, len(ph.Rounds)))
		if err := solverLayers(r, sp, h, rc); err != nil {
			return nil, err
		}
	} else {
		r.set("engine.min_yield", 0, "yield", "no epochs on this workload")
		r.set("hvp.search_ms.p50", 0, "ms", "no solver work on this workload")
		r.set("lp.bound_ms.p50", 0, "ms", "no solver work on this workload")
	}
	for _, k := range client.keys {
		r.set(k, client.m[k].Value, client.m[k].Unit, client.note[k])
	}
	var late []float64
	for _, s := range u.ph.Samples {
		if s.Kind == "read" {
			_, l := openLoopTiming(s.Due, s.Sent, s.Done)
			late = append(late, ms(l))
		}
	}
	if len(late) > 0 {
		r.setLayerPct("client.late_ms.p99", late, 0.99, "ms")
	} else {
		r.set("client.late_ms.p99", 0, "ms", "closed loop only")
	}
	overheadLayer(r, sp, u.ph, ph)
	return r, nil
}

// codecLayer times the JSON codec on the workload's own admission bodies
// and on the end-of-run state.
func codecLayer(r *report, h *host, bodies [][]byte) error {
	services := 0
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < 200*time.Millisecond; pass++ {
		for _, b := range bodies {
			if !bytes.HasPrefix(b, []byte(`{"services":`)) {
				var single addReq
				if err := json.Unmarshal(b, &single); err != nil {
					return err
				}
				services++
				continue
			}
			var batch batchReq
			if err := json.Unmarshal(b, &batch); err != nil {
				return err
			}
			services += len(batch.Services)
		}
	}
	el := time.Since(start)
	r.setRatio("core.decode_us_per_service", ratio{float64(el) / float64(time.Microsecond), float64(services)}, "us")

	st, data, err := h.ss.State()
	if err != nil {
		return err
	}
	var enc, dec []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := server.EncodeState(st); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := server.DecodeState(data); err != nil {
			return err
		}
		enc = append(enc, ms(t1.Sub(t0)))
		dec = append(dec, ms(time.Since(t1)))
	}
	note := fmt.Sprintf("median of %d, %d services, %d bytes", len(enc), len(st.Services), len(data))
	r.set("core.state_encode_ms", median(enc), "ms", note)
	r.set("core.state_decode_ms", median(dec), "ms", note)
	return nil
}

// clusterLayer replays each round into its own standalone sharded
// cluster, with no journal and no lock: the round's preload untimed, then
// its op stream timed. It returns the last cluster for the solver layers'
// domain boundaries, which every round shares.
func clusterLayer(r *report, sp spec, rounds []*roundOut) (*vmalloc.ShardedCluster, error) {
	var c *vmalloc.ShardedCluster
	var el time.Duration
	services := 0
	for _, ro := range rounds {
		var err error
		c, err = vmalloc.NewShardedCluster(platformNodes(), &vmalloc.ShardedOptions{
			ClusterOptions: vmalloc.ClusterOptions{UseLPBound: sp.LP},
			Shards:         platformShards,
			Seed:           platformSeed,
		})
		if err != nil {
			return nil, err
		}
		ids := map[int]int{} // daemon id -> replay id
		admit := func(daemonIDs []int, svcs []vmalloc.Service) error {
			entries := make([]vmalloc.BatchEntry, len(svcs))
			for i, s := range svcs {
				entries[i] = vmalloc.BatchEntry{True: s, Est: s}
			}
			for i, br := range c.AddBatch(entries) {
				if !br.Admitted {
					return fmt.Errorf("replay: service %d not admitted: %v", daemonIDs[i], br.Err)
				}
				ids[daemonIDs[i]] = br.ID
			}
			return nil
		}
		if err := admit(ro.Pre.IDs, ro.Pre.Svcs); err != nil {
			return nil, err
		}
		start := time.Now()
		for _, o := range ro.Ops {
			switch o.Kind {
			case "batch":
				if err := admit(o.IDs, o.Svcs); err != nil {
					return nil, err
				}
				services += len(o.Svcs)
			case "update":
				n := o.Need
				if err := c.UpdateNeeds(ids[o.IDs[0]], n[0], n[1], n[0], n[1]); err != nil {
					return nil, fmt.Errorf("replay: %w", err)
				}
				services++
			}
		}
		el += time.Since(start)
	}
	r.setRatio("cluster.apply_us_per_service", ratio{float64(el) / float64(time.Microsecond), float64(services)}, "us")
	return c, nil
}

// journalLayer derives the write-ahead log figures from the timed FS's
// spans inside the measured window.
func journalLayer(r *report, spans []span, inWindow func(span) bool, writes int, records uint64, h *host) {
	var syncMs []float64
	var syncTotal, snapMs float64
	var segWrites, segBytes, snaps, snapBytes int
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "journal.") || !inWindow(s) {
			continue
		}
		d := ms(s.iv().dur())
		switch s.Name {
		case "journal.segment.sync":
			syncMs = append(syncMs, d)
			syncTotal += d
		case "journal.segment.write":
			segWrites++
			segBytes += s.Bytes
		case "journal.snapshot.write":
			snapBytes += s.Bytes
			snapMs += d
		case "journal.snapshot.sync":
			snapMs += d
		case "journal.snapshot.rename":
			snaps++
			snapMs += d
		}
	}
	fsyncs := float64(len(syncMs))
	r.setRatio("journal.fsyncs_per_op", ratio{fsyncs, float64(writes)}, "count")
	r.setRatio("journal.records_per_fsync", ratio{float64(records), fsyncs}, "count")
	r.setLayerPct("journal.fsync_ms.p50", syncMs, 0.5, "ms")
	r.set("journal.fsync_ms_total", syncTotal, "ms", fmt.Sprintf("n=%d segment fsyncs", len(syncMs)))
	r.setRatio("journal.write_calls_per_op", ratio{float64(segWrites), float64(writes)}, "count")
	r.setRatio("journal.bytes_per_record", ratio{float64(segBytes), float64(records)}, "B")
	r.set("journal.snapshots", float64(snaps), "count", "snapshot files committed in the window")
	r.set("journal.snapshot_mb", float64(snapBytes)/(1<<20), "MB", fmt.Sprintf("%d snapshots", snaps))
	r.set("journal.snapshot_ms_total", snapMs, "ms", "write+sync+rename of snapshot files")
	r.set("journal.dir_mb", float64(h.killDirBytes)/(1<<20), "MB", "journal directory when the last crash struck")
	r.set("journal.recover_ms", ms(h.open), "ms", "server.OpenSharded on the killed directory")
	r.set("journal.replayed_records", float64(h.replayed), "count", "WAL records replayed by that recovery")
}

// epochLayers summarises the shard router, engine and solver tiers from
// the epochs the traced store returned.
func epochLayers(r *report, eps []tracedEpoch, moves uint64) {
	var maxSolve, imbalance, gather, engine []float64
	var sv vmalloc.SolverStats
	for _, te := range eps {
		st := te.ce.Stats
		if st == nil {
			continue
		}
		sv.Add(st.Solver)
		var mx, sum int64
		for _, s := range st.Shards {
			mx = max(mx, s.SolveNs)
			sum += s.SolveNs
			engine = append(engine, float64(s.SolveNs)/1e6)
		}
		maxSolve = append(maxSolve, float64(mx)/1e6)
		if sum > 0 {
			imbalance = append(imbalance, float64(mx)/(float64(sum)/float64(len(st.Shards))))
		}
		gather = append(gather, ms(te.dur)-float64(mx)/1e6)
	}
	n := float64(len(eps))
	r.setLayerPct("shard.solve_ms_max.p50", maxSolve, 0.5, "ms")
	r.setLayerPct("shard.imbalance.p50", imbalance, 0.5, "ratio")
	r.setLayerPct("shard.gather_ms.p50", gather, 0.5, "ms")
	r.set("shard.rebalance_moves", float64(moves), "count", fmt.Sprintf("over %d epochs", len(eps)))
	r.setLayerPct("engine.solve_ms.p50", engine, 0.5, "ms")
	r.setRatio("vp.packs_per_epoch", ratio{float64(sv.VPPacks), n}, "count")
	r.setRatio("vp.solved_frac", ratio{float64(sv.VPPacksSolved), float64(sv.VPPacks)}, "frac")
	r.setRatio("vp.steps_pruned_per_epoch", ratio{float64(sv.VPStepsPruned), n}, "count")
	r.setRatio("lp.iterations_per_epoch", ratio{float64(sv.LPIterations), n}, "count")
	r.setRatio("lp.refactorizations_per_epoch", ratio{float64(sv.LPRefactorizations), n}, "count")
	r.setRatio("lp.warm_frac", ratio{float64(sv.LPWarmStarts), float64(sv.LPWarmStarts + sv.LPColdStarts)}, "frac")
	r.setRatio("presolve.rows_eliminated_per_epoch", ratio{float64(sv.PresolveRowsEliminated), n}, "count")
}

// solverLayers times the vector-packing search and, on the LP workload,
// the LP bound on each placement domain's problem at the end of the run.
func solverLayers(r *report, sp spec, h *host, c *vmalloc.ShardedCluster) error {
	st, _, err := h.ss.State()
	if err != nil {
		return err
	}
	var search, bound []float64
	for rep := 0; rep < 5; rep++ {
		for s := 0; s < c.Shards(); s++ {
			lo, hi := c.NodeRange(s)
			p := &core.Problem{Nodes: st.Nodes[lo:hi]}
			for _, svc := range st.Services {
				if svc.Node >= lo && svc.Node < hi {
					p.Services = append(p.Services, svc.Est)
				}
			}
			t0 := time.Now()
			res := hvp.MetaHVPLight(p, 0)
			search = append(search, ms(time.Since(t0)))
			if !res.Solved {
				return fmt.Errorf("hvp.MetaHVPLight found no placement for domain %d", s)
			}
			if sp.LP {
				t0 = time.Now()
				if _, err := relax.UpperBound(p); err != nil {
					return err
				}
				bound = append(bound, ms(time.Since(t0)))
			}
		}
	}
	r.set("hvp.search_ms.p50", median(search), "ms", fmt.Sprintf("median of n=%d domain solves", len(search)))
	if sp.LP {
		r.set("lp.bound_ms.p50", median(bound), "ms", fmt.Sprintf("median of n=%d domain bounds", len(bound)))
	} else {
		r.set("lp.bound_ms.p50", 0, "ms", "the LP bound is off on this workload")
	}
	return nil
}

// overheadLayer compares the traced run's headline figure with the
// untraced one, by the same statistic: the cost the tracing (and the
// in-process host) adds.
func overheadLayer(r *report, sp spec, untraced, traced *phase) {
	if sp.Shape == shapeBulk {
		u, t := median(roundRates(untraced)), median(roundRates(traced))
		r.set("obs.overhead_frac", u/t-1, "frac", fmt.Sprintf("services admitted per second, median of rounds: untraced %.6g / traced %.6g - 1", u, t))
		return
	}
	u, t := median(latencies(untraced.Samples, "reallocate")), median(latencies(traced.Samples, "reallocate"))
	r.set("obs.overhead_frac", t/u-1, "frac", fmt.Sprintf("epoch p50 traced %.6g ms / untraced %.6g ms - 1", t, u))
}

// writeSpans writes the traced run's spans, client spans included, as JSON
// lines under the work directory.
func writeSpans(cfg config, sp spec, samples []sample, spans []span) error {
	dir := filepath.Join(cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", sp.Name, cfg.seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range samples {
		if err := enc.Encode(span{Name: "client." + s.Kind, ReqID: s.ReqID, Start: s.Sent, End: s.Done, Bytes: s.ReqBytes}); err != nil {
			f.Close()
			return err
		}
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
