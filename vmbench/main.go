// Command vmbench is the vmallocd benchmark. It starts a real vmallocd,
// drives one workload against it from this single load process (at most
// two connections), checks the daemon's outputs and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured against the
// vmallocd subprocess. With -trace 1 the same untraced run is followed by
// a traced run that hosts the daemon in-process, times the calls into each
// layer from this package's own wrappers, and prints the per-layer
// metrics.
//
// Usage (run.sh builds both binaries first):
//
//	vmbench -daemon vmallocd -work .bench_build --workload bulk-ingest --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// setupRuns is how many times one run sets the workload up; setup_s is
// their median.
const setupRuns = 15

type config struct {
	daemon  string
	work    string
	commit  string
	name    string
	seed    int64
	seconds int
	trace   bool
}

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.daemon, "daemon", "", "vmallocd binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for run directories, traces and results")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source revision being measured, recorded in the result")
	flag.StringVar(&cfg.name, "workload", "", "workload: bulk-ingest, epoch-reads or epoch-lp")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured window per run")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced in-process daemon and print per-layer metrics")
	spinner := flag.Bool("spin", false, "keep every CPU busy at idle priority until killed (the benchmark starts this itself)")
	flag.Parse()
	if *spinner {
		if err := spin(); err != nil {
			fmt.Fprintln(os.Stderr, "vmbench:", err)
			os.Exit(1)
		}
	}
	cfg.trace = trace == 1
	sp, ok := specByName(cfg.name)
	if !ok || cfg.daemon == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The load process stays within the machine's cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), maxConns))

	res, err := run(sp, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		if res == nil {
			os.Exit(1)
		}
		res.Correct = false
		res.Metrics = map[string]metric{}
		printResult(res)
		os.Exit(1)
	}
	printResult(res)
}

func printResult(res *result) {
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// report collects the printed metrics along with the sample count or
// base behind each.
type report struct {
	m    map[string]metric
	note map[string]string
	keys []string
}

func newReport() *report {
	return &report{m: map[string]metric{}, note: map[string]string{}}
}

func (r *report) set(name string, v float64, unit, note string) {
	if _, dup := r.m[name]; !dup {
		r.keys = append(r.keys, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.note[name] = note
}

func (r *report) print(header string) {
	fmt.Println(header)
	for _, k := range r.keys {
		fmt.Printf("  %-40s %14.6g %-6s %s\n", k, r.m[k].Value, r.m[k].Unit, r.note[k])
	}
}

func run(sp spec, cfg config) (*result, error) {
	runDir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-%d-%d", sp.Name, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	stop, err := startSpinner()
	if err != nil {
		return nil, err
	}
	defer stop()
	fmt.Printf("vmbench: workload=%s seed=%d seconds=%d trace=%v commit=%s go=%s nproc=%d gomaxprocs=%d\n",
		sp.Name, cfg.seed, cfg.seconds, cfg.trace, cfg.commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	u, err := runUntraced(sp, cfg, runDir)
	if err != nil {
		return failed(u), err
	}
	e2e, client := endToEnd(sp, u)
	e2e.print("end-to-end (untraced, vmallocd subprocess, at the reference speed):")
	client.print("client timings (untraced, as measured, not gated):")
	res := &result{Correct: true, Attempted: u.ph.Attempted, Failed: u.ph.Failed, Metrics: e2e.m}
	if cfg.trace {
		layers, err := runTraced(sp, cfg, runDir, u, client)
		if err != nil {
			return res, err
		}
		layers.print("per-layer (traced, in-process daemon):")
		res.Metrics = layers.m
	}
	if res.Failed > 0 {
		return res, fmt.Errorf("%d of %d requests failed", res.Failed, res.Attempted)
	}
	saveResult(cfg, sp, res)
	return res, nil
}

func failed(u *untraced) *result {
	if u == nil || u.ph == nil {
		return &result{Attempted: 1, Failed: 1}
	}
	return &result{Attempted: max(u.ph.Attempted, 1), Failed: max(u.ph.Failed, 1)}
}

// saveResult keeps the run's result with its provenance under the work
// directory.
func saveResult(cfg config, sp spec, res *result) {
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	out := struct {
		Workload string  `json:"workload"`
		Seed     int64   `json:"seed"`
		Seconds  int     `json:"seconds"`
		Trace    bool    `json:"trace"`
		Commit   string  `json:"commit"`
		Go       string  `json:"go"`
		NProc    int     `json:"nproc"`
		Result   *result `json:"result"`
	}{sp.Name, cfg.seed, cfg.seconds, cfg.trace, cfg.commit, runtime.Version(), runtime.NumCPU(), res}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("%s-seed%d-trace%s.json", sp.Name, cfg.seed, strconv.FormatBool(cfg.trace))
	_ = os.WriteFile(filepath.Join(dir, name), data, 0o644) // provenance copy; stdout is the record
}

// untraced is the subprocess run behind the end-to-end metrics.
type untraced struct {
	setups []time.Duration
	ph     *phase
	rssMB  []float64 // peak RSS of each measured daemon
}

// procTarget drives vmallocd subprocesses. Before a measured daemon is
// killed it records the daemon's peak RSS; a daemon restarted only to
// check recovery is not measured.
type procTarget struct {
	d        *daemon
	measured bool
	flags    []string
	base     string // first directory; fresh ones are named after it
	fresh    int
	rss      []float64
}

func (t *procTarget) URL() string { return t.d.url }

func (t *procTarget) Usage() (usage, error) {
	cpu, err := t.d.cpuTime()
	return usage{CPU: cpu}, err
}

func (t *procTarget) CrashRestart() (time.Duration, error) {
	if err := t.kill(); err != nil {
		return 0, err
	}
	start := time.Now()
	d, err := startDaemon(t.d.bin, t.d.dir, nil)
	if err != nil {
		return 0, err
	}
	t.d = d
	t.measured = false
	return time.Since(start), nil
}

func (t *procTarget) Fresh() (time.Duration, error) {
	if err := t.kill(); err != nil {
		return 0, err
	}
	t.fresh++
	start := time.Now()
	d, err := startDaemon(t.d.bin, fmt.Sprintf("%s-fresh%d", t.base, t.fresh), t.flags)
	if err != nil {
		return 0, err
	}
	t.d = d
	t.measured = true
	return time.Since(start), nil
}

// kill stops the daemon, first recording its peak RSS if it is measured.
func (t *procTarget) kill() error {
	if t.measured {
		rss, err := t.d.peakRSSMB()
		if err != nil {
			t.d.kill()
			return err
		}
		t.rss = append(t.rss, rss)
	}
	t.d.kill()
	return nil
}

// runUntraced sets the workload up setupRuns times on fresh directories
// and ports, then measures the last set-up's daemon.
func runUntraced(sp spec, cfg config, runDir string) (*untraced, error) {
	u := &untraced{}
	// The freshly built binaries reach the disk, and one untimed set-up
	// (i = -1) brings the daemon into the page cache, before set-ups are
	// timed.
	syscall.Sync()
	for i := -1; i < setupRuns; i++ {
		dir := filepath.Join(runDir, fmt.Sprintf("untraced-%d", i+1))
		start := time.Now()
		d, err := startDaemon(cfg.daemon, dir, sp.flags())
		if err != nil {
			return u, err
		}
		c := newClient(d.url, false, "")
		pl, err := roundPreload(sp, c, cfg.seed, 0)
		if i >= 0 {
			u.setups = append(u.setups, time.Since(start))
		}
		if err != nil || i < setupRuns-1 {
			// The directory stays until the run ends: deleting it now
			// would put its discards on the disk during the window.
			c.close()
			d.kill()
			if err != nil {
				return u, err
			}
			continue
		}
		t := &procTarget{d: d, measured: true, flags: sp.flags(), base: dir}
		// Set-up writes reach the disk before the window opens.
		syscall.Sync()
		u.ph, err = runPhase(sp, t, c, pl, cfg.seed, cfg.seconds)
		if kerr := t.kill(); err == nil {
			err = kerr
		}
		if err != nil {
			return u, err
		}
		u.rssMB = t.rss
	}
	return u, nil
}

// latencies returns the latencies, in milliseconds from each request's
// due time, of the samples of one kind.
func latencies(ss []sample, kind string) []float64 {
	var out []float64
	for _, s := range samplesOf(ss, kind) {
		out = append(out, ms(s.latency()))
	}
	return out
}

// endToEnd computes the metrics a user of the daemon sees: the gated ones,
// stated at the reference speed (calib.go), and the client's timings that
// a shared machine's noise moves by more than any gate's bound, which are
// reported with the client layer instead.
func endToEnd(sp spec, u *untraced) (r, client *report) {
	r, client = newReport(), newReport()
	ph := u.ph
	slow := ph.Speed.slowdown()
	// A time is divided by the slowdown, a rate multiplied by it.
	setTime := func(name string, v float64, unit, note string) {
		r.set(name, v/slow, unit, fmt.Sprintf("%.6g %s as measured; %s", v, unit, note))
	}
	var setups []float64
	for _, d := range append(u.setups, ph.Setups...) {
		setups = append(setups, d.Seconds())
	}
	setTime("setup_s", median(setups), "s", fmt.Sprintf("median of n=%d set-ups: %d before the first round, one before each later round", len(setups), len(u.setups)))
	var work float64
	var what string
	switch sp.Shape {
	case shapeBulk:
		rates := roundRates(ph)
		work, what = float64(ph.Admitted), "services admitted"
		r.set("throughput_per_s", median(rates)*slow, "1/s", fmt.Sprintf("%.6g /s as measured; services admitted, median of n=%d rounds; %d services / %.3f s in all",
			median(rates), len(rates), ph.Admitted, ph.Elapsed.Seconds()))
	case shapeEpoch:
		work, what = float64(len(latencies(ph.Samples, "reallocate"))), "epochs"
		rate := work / ph.Elapsed.Seconds()
		r.set("throughput_per_s", rate*slow, "1/s", fmt.Sprintf("%.6g /s as measured; %.0f epochs / %.3f s", rate, work, ph.Elapsed.Seconds()))
	}
	cpu := float64(ph.Cost.CPU) / float64(time.Microsecond)
	setTime("cpu_us_per_op", cpu/work, "us", fmt.Sprintf("daemon CPU %.6g us / %.0f %s", cpu, work, what))
	var rec []float64
	for _, ro := range ph.Rounds {
		rec = append(rec, ro.Recovery.Seconds())
	}
	setTime("recovery_s", median(rec), "s", fmt.Sprintf("median of n=%d recoveries", len(rec)))
	r.set("peak_rss_mb", median(u.rssMB), "MB", fmt.Sprintf("daemon VmHWM, median of n=%d daemons", len(u.rssMB)))

	// A round has too few requests for its own tail, so the client's
	// timings pool every round. They are as measured.
	client.set("client.slowdown", slow, "ratio", ph.Speed.String())
	wr := append(latencies(ph.Samples, "batch"), latencies(ph.Samples, "update")...)
	client.setLayerPct("client.req_p50_ms", wr, 0.5, "ms")
	client.setLayerPct("client.req_p99_ms", wr, 0.99, "ms")
	ep, rd := latencies(ph.Samples, "reallocate"), latencies(ph.Samples, "read")
	client.setLayerPct("client.epoch_p50_ms", ep, 0.5, "ms")
	client.setLayerPct("client.epoch_p90_ms", ep, 0.9, "ms")
	client.setLayerPct("client.read_p50_ms", rd, 0.5, "ms")
	client.setLayerPct("client.read_p90_ms", rd, 0.9, "ms")
	client.setLayerPct("client.read_p99_ms", rd, 0.99, "ms")
	return r, client
}

// samplesOf returns the samples of one request kind.
func samplesOf(ss []sample, kind string) []sample {
	var out []sample
	for _, s := range ss {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// roundRates returns each round's services admitted per second.
func roundRates(ph *phase) []float64 {
	var out []float64
	for _, ro := range ph.Rounds {
		out = append(out, float64(ro.Admitted)/ro.Window.dur().Seconds())
	}
	return out
}
