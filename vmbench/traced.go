package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"vmalloc"
	"vmalloc/internal/faultfs"
	"vmalloc/internal/journal"
	"vmalloc/internal/obs"
	"vmalloc/internal/server"
)

// span is one timed call recorded by the traced run. Client spans carry
// the request id the client stamped; store spans carry the id of the trace
// the daemon's middleware opened for that request (the same id), so the
// client span is their parent; journal spans run on the journal's
// committer goroutine and have no request.
type span struct {
	Name   string    `json:"name"`
	ReqID  string    `json:"req_id,omitempty"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Bytes  int       `json:"bytes,omitempty"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

// recorder keeps the traced run's spans in memory.
type recorder struct {
	mu    sync.Mutex
	spans []span
	eps   []tracedEpoch
}

// tracedEpoch is one reallocation as the store returned it, with the
// duration of the store call around it.
type tracedEpoch struct {
	ce  *vmalloc.ClusterEpoch
	dur time.Duration
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// timeCall records a store span around one server.API call.
func (r *recorder) timeCall(ctx context.Context, name string) func() {
	id := ""
	if tr := obs.SpanFromContext(ctx).Trace(); tr != nil {
		id = tr.ID()
	}
	start := time.Now()
	return func() {
		s := span{Name: "store." + name, ReqID: id, Start: start, End: time.Now()}
		if id != "" {
			s.Parent = "client"
		}
		r.add(s)
	}
}

// store is every surface of *server.ShardedStore the HTTP handler and the
// metrics registry type-assert, so the wrapper serves the same routes and
// code paths as the bare store.
type store interface {
	server.API
	AddBatchCtx(ctx context.Context, specs []server.AddSpec) ([]server.AddOutcome, error)
	RemoveCtx(ctx context.Context, id int) (bool, error)
	UpdateNeedsCtx(ctx context.Context, id int, trueElem, trueAgg, estElem, estAgg vmalloc.Vec) error
	SetThresholdCtx(ctx context.Context, th float64) error
	ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error)
	RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error)
	Ready() error
	ShardStats() ([]vmalloc.ShardStat, error)
	JournalIOStats() journal.IOStats
	ReplicaManifest() (*server.ShardManifest, error)
	ReplicaCheckpoint(shard int) (*journal.Checkpoint, error)
	ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error)
	ChainStatus() ([]server.ShardChain, error)
}

var _ store = (*server.ShardedStore)(nil)

// timedAPI times every call into the store.
type timedAPI struct {
	s   store
	rec *recorder
}

var _ store = (*timedAPI)(nil)

var bg = context.Background()

func (a *timedAPI) AddWithEstimate(t, e vmalloc.Service) (int, int, error) {
	defer a.rec.timeCall(bg, "add")()
	return a.s.AddWithEstimate(t, e)
}

func (a *timedAPI) AddBatch(specs []server.AddSpec) ([]server.AddOutcome, error) {
	defer a.rec.timeCall(bg, "add")()
	return a.s.AddBatch(specs)
}

func (a *timedAPI) Remove(id int) (bool, error) {
	defer a.rec.timeCall(bg, "remove")()
	return a.s.Remove(id)
}

func (a *timedAPI) UpdateNeeds(id int, te, ta, ee, ea vmalloc.Vec) error {
	defer a.rec.timeCall(bg, "update")()
	return a.s.UpdateNeeds(id, te, ta, ee, ea)
}

func (a *timedAPI) SetThreshold(th float64) error {
	defer a.rec.timeCall(bg, "threshold")()
	return a.s.SetThreshold(th)
}

func (a *timedAPI) Reallocate() (*vmalloc.ClusterEpoch, error) {
	return a.ReallocateCtx(bg)
}

func (a *timedAPI) Repair(budget int) (*vmalloc.ClusterEpoch, error) {
	defer a.rec.timeCall(bg, "repair")()
	return a.s.Repair(budget)
}

func (a *timedAPI) MinYield(p vmalloc.SchedPolicy) (float64, error) {
	defer a.rec.timeCall(bg, "read")()
	return a.s.MinYield(p)
}

func (a *timedAPI) State() (*vmalloc.ClusterState, []byte, error) {
	defer a.rec.timeCall(bg, "state")()
	return a.s.State()
}

func (a *timedAPI) Checkpoint() (uint64, error) {
	defer a.rec.timeCall(bg, "checkpoint")()
	return a.s.Checkpoint()
}

func (a *timedAPI) Stats() server.Stats {
	defer a.rec.timeCall(bg, "read")()
	return a.s.Stats()
}

func (a *timedAPI) AddBatchCtx(ctx context.Context, specs []server.AddSpec) ([]server.AddOutcome, error) {
	defer a.rec.timeCall(ctx, "add")()
	return a.s.AddBatchCtx(ctx, specs)
}

func (a *timedAPI) RemoveCtx(ctx context.Context, id int) (bool, error) {
	defer a.rec.timeCall(ctx, "remove")()
	return a.s.RemoveCtx(ctx, id)
}

func (a *timedAPI) UpdateNeedsCtx(ctx context.Context, id int, te, ta, ee, ea vmalloc.Vec) error {
	defer a.rec.timeCall(ctx, "update")()
	return a.s.UpdateNeedsCtx(ctx, id, te, ta, ee, ea)
}

func (a *timedAPI) SetThresholdCtx(ctx context.Context, th float64) error {
	defer a.rec.timeCall(ctx, "threshold")()
	return a.s.SetThresholdCtx(ctx, th)
}

// ReallocateCtx also keeps the epoch, whose stats carry the per-domain
// solve times and solver counters.
func (a *timedAPI) ReallocateCtx(ctx context.Context) (*vmalloc.ClusterEpoch, error) {
	start := time.Now()
	done := a.rec.timeCall(ctx, "reallocate")
	ce, err := a.s.ReallocateCtx(ctx)
	done()
	if ce != nil {
		a.rec.mu.Lock()
		a.rec.eps = append(a.rec.eps, tracedEpoch{ce, time.Since(start)})
		a.rec.mu.Unlock()
	}
	return ce, err
}

func (a *timedAPI) RepairCtx(ctx context.Context, budget int) (*vmalloc.ClusterEpoch, error) {
	defer a.rec.timeCall(ctx, "repair")()
	return a.s.RepairCtx(ctx, budget)
}

func (a *timedAPI) Ready() error {
	defer a.rec.timeCall(bg, "read")()
	return a.s.Ready()
}

func (a *timedAPI) ShardStats() ([]vmalloc.ShardStat, error) {
	defer a.rec.timeCall(bg, "read")()
	return a.s.ShardStats()
}

func (a *timedAPI) JournalIOStats() journal.IOStats { return a.s.JournalIOStats() }

func (a *timedAPI) ReplicaManifest() (*server.ShardManifest, error) { return a.s.ReplicaManifest() }

func (a *timedAPI) ReplicaCheckpoint(shard int) (*journal.Checkpoint, error) {
	return a.s.ReplicaCheckpoint(shard)
}

func (a *timedAPI) ReplicaStream(shard int, from uint64, maxBytes int) (*server.StreamBatch, error) {
	return a.s.ReplicaStream(shard, from, maxBytes)
}

func (a *timedAPI) ChainStatus() ([]server.ShardChain, error) { return a.s.ChainStatus() }

// fileKind classifies a journal path: WAL segment, state snapshot, the
// integrity-chain or shard manifest, or anything else.
func fileKind(name string) string {
	base := strings.TrimSuffix(filepath.Base(name), ".tmp")
	switch {
	case strings.HasPrefix(base, "wal-"):
		return "segment"
	case strings.HasPrefix(base, "snap-"):
		return "snapshot"
	case base == "chain.json" || base == "shards.json":
		return "manifest"
	}
	return "other"
}

// timedFS records a journal span for every write, sync and rename.
type timedFS struct {
	inner faultfs.FS
	rec   *recorder
}

func (f *timedFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: file, kind: fileKind(name), rec: f.rec}, nil
}

func (f *timedFS) Open(name string) (faultfs.File, error)       { return f.inner.Open(name) }
func (f *timedFS) ReadFile(name string) ([]byte, error)         { return f.inner.ReadFile(name) }
func (f *timedFS) ReadDir(name string) ([]fs.DirEntry, error)   { return f.inner.ReadDir(name) }
func (f *timedFS) MkdirAll(name string, perm fs.FileMode) error { return f.inner.MkdirAll(name, perm) }
func (f *timedFS) Remove(name string) error                     { return f.inner.Remove(name) }
func (f *timedFS) Truncate(name string, size int64) error       { return f.inner.Truncate(name, size) }
func (f *timedFS) Rename(oldname, newname string) error {
	start := time.Now()
	err := f.inner.Rename(oldname, newname)
	f.rec.add(span{Name: "journal." + fileKind(newname) + ".rename", Start: start, End: time.Now()})
	return err
}

type timedFile struct {
	faultfs.File
	kind string
	rec  *recorder
}

func (f *timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.rec.add(span{Name: "journal." + f.kind + ".write", Start: start, End: time.Now(), Bytes: n})
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.rec.add(span{Name: "journal." + f.kind + ".sync", Start: start, End: time.Now()})
	return err
}

// host serves the traced daemon in-process, built from the constructors
// cmd/vmallocd uses, on a loopback listener.
type host struct {
	dir   string
	base  string // first directory; fresh ones are named after it
	sp    spec
	nodes []vmalloc.Node
	rec   *recorder
	ss    *server.ShardedStore
	api   *timedAPI
	srv   *http.Server
	url   string
	done  chan error

	// open is how long the last server.OpenSharded took, and replayed
	// how many WAL records it replayed.
	open     time.Duration
	replayed int
	// killDirBytes is the size of the journal directory when the last
	// crash struck.
	killDirBytes int64
	fresh        int
}

// options are vmallocd's options for daemonFlags, with the timing FS.
func (h *host) options() *server.Options {
	return &server.Options{
		Cluster:       vmalloc.ClusterOptions{UseLPBound: h.sp.LP},
		Fsync:         journal.FsyncBatch,
		SnapshotEvery: snapshotEvery,
		Shards:        platformShards,
		ShardSeed:     platformSeed,
		FS:            &timedFS{inner: faultfs.OS{}, rec: h.rec},
		Obs:           &obs.Observer{Tracer: obs.NewTracer(0, 0), Epochs: obs.NewEpochRing(0)},
	}
}

func openHost(dir string, sp spec, rec *recorder) (*host, error) {
	h := &host{dir: dir, base: dir, sp: sp, nodes: platformNodes(), rec: rec}
	if err := h.start(); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *host) start() error {
	opts := h.options()
	start := time.Now()
	ss, err := server.OpenSharded(h.dir, h.nodes, opts)
	if err != nil {
		return err
	}
	h.open = time.Since(start)
	h.replayed = ss.Stats().Replayed
	lg, err := obs.NewLogger(io.Discard, "info", "text")
	if err != nil {
		ss.Close()
		return err
	}
	h.ss = ss
	h.api = &timedAPI{s: ss, rec: h.rec}
	m := server.NewObservedMetrics(h.api, opts.Obs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ss.Close()
		return err
	}
	h.url = "http://" + ln.Addr().String()
	h.srv = &http.Server{Handler: server.NewObservedHandler(h.api, m, opts.Obs, lg), ReadHeaderTimeout: 10 * time.Second}
	h.done = make(chan error, 1)
	go func() { h.done <- h.srv.Serve(ln) }()
	return nil
}

func (h *host) URL() string { return h.url }

// Usage reads the store's journal records and rebalance moves.
func (h *host) Usage() (usage, error) {
	u := usage{Records: h.ss.JournalIOStats().Records}
	st, err := h.ss.ShardStats()
	for _, s := range st {
		u.Moved += s.MovedIn
	}
	return u, err
}

func (h *host) stopHTTP() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Connections are idle by now; a timeout only leaves sockets open
	// until the process exits.
	_ = h.srv.Shutdown(ctx)
	<-h.done // Serve returns ErrServerClosed once Shutdown begins
}

// CrashRestart abandons the store as a crash would and reopens the
// directory, timing recovery up to a served /readyz.
func (h *host) CrashRestart() (time.Duration, error) {
	h.retire()
	start := time.Now()
	if err := h.start(); err != nil {
		return 0, err
	}
	c := newClient(h.url, false, "")
	defer c.close()
	if _, err := c.do("gate", "GET", "/readyz", nil, time.Time{}, nil); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// retire stops serving and abandons the store as a crash would.
func (h *host) retire() {
	h.stopHTTP()
	h.killDirBytes = dirBytes(h.dir)
	h.ss.Kill()
}

// Fresh replaces the store with a new one on a fresh directory.
func (h *host) Fresh() (time.Duration, error) {
	h.retire()
	h.fresh++
	h.dir = fmt.Sprintf("%s-fresh%d", h.base, h.fresh)
	start := time.Now()
	err := h.start()
	return time.Since(start), err
}

func (h *host) close() { h.retire() }
