package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..1000
	}
	v, ok := percentile(xs, 0.99)
	if !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, ok=%v; want 990 with exactly 10 above", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it; want !ok")
	}
	if v, ok := percentile(xs[:100], 0.9); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, ok=%v; want 90, ok", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it; want !ok")
	}
	if v, ok := percentile([]float64{3, 1, 2}, 0.5); ok || v != 2 {
		t.Fatalf("median of {3,1,2} = %v, ok=%v; want 2 and too few for a tail", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of no samples is ok")
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{5, 4, 3, 2, 1}
	percentile(xs, 0.5)
	if xs[0] != 5 || xs[4] != 1 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMinSamples(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		want int
	}{{0.5, 20}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamples(tc.q); got != tc.want {
			t.Errorf("minSamples(%v) = %d, want %d", tc.q, got, tc.want)
		}
		xs := make([]float64, tc.want)
		if _, ok := percentile(xs, tc.q); !ok {
			t.Errorf("percentile(%d samples, %v) not ok", tc.want, tc.q)
		}
		if _, ok := percentile(xs[:tc.want-1], tc.q); ok {
			t.Errorf("percentile(%d samples, %v) ok", tc.want-1, tc.q)
		}
	}
}

func TestOpenLoopTiming(t *testing.T) {
	due := time.Unix(100, 0)
	// Sent 30 ms late behind a stall, answered 5 ms later: the request's
	// latency counts the stall.
	lat, late := openLoopTiming(due, due.Add(30*time.Millisecond), due.Add(35*time.Millisecond))
	if lat != 35*time.Millisecond || late != 30*time.Millisecond {
		t.Fatalf("latency %v late %v, want 35ms and 30ms", lat, late)
	}
	// Sent early (the generator woke before its due time): not late, and
	// latency still runs from the due time.
	lat, late = openLoopTiming(due, due.Add(-time.Millisecond), due.Add(2*time.Millisecond))
	if lat != 2*time.Millisecond || late != 0 {
		t.Fatalf("latency %v late %v, want 2ms and 0", lat, late)
	}
	s := sample{Due: due, Sent: due.Add(time.Millisecond), Done: due.Add(4 * time.Millisecond)}
	if s.latency() != 4*time.Millisecond {
		t.Fatalf("sample latency %v, want 4ms from the due time", s.latency())
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func iv(a, b int) interval { return interval{at(a), at(b)} }

func TestSelfTimeByIntervalUnion(t *testing.T) {
	parent := iv(0, 100)
	for _, tc := range []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(50, 70)}, 70 * time.Millisecond},
		{"overlapping count once", []interval{iv(10, 40), iv(30, 60)}, 50 * time.Millisecond},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50 * time.Millisecond},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80 * time.Millisecond},
		{"clipped to parent", []interval{iv(-50, 10), iv(90, 150)}, 80 * time.Millisecond},
		{"outside parent", []interval{iv(200, 300)}, 100 * time.Millisecond},
		{"unsorted", []interval{iv(70, 80), iv(10, 20), iv(15, 25)}, 75 * time.Millisecond},
		{"covers all", []interval{iv(0, 100), iv(10, 20)}, 0},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRatioKeepsItsBase(t *testing.T) {
	r := ratio{Num: 3, Den: 4}
	if r.Value() != 0.75 || r.String() != "3/4" {
		t.Fatalf("ratio 3/4 = %v %q", r.Value(), r.String())
	}
	if z := (ratio{Num: 5}); z.Value() != 0 || z.String() != "5/0" {
		t.Fatalf("empty base: %v %q, want 0 and 5/0", z.Value(), z.String())
	}
	rep := newReport()
	rep.setRatio("journal.records_per_fsync", ratio{1000, 40}, "count")
	if rep.m["journal.records_per_fsync"].Value != 25 || rep.note["journal.records_per_fsync"] != "1000/40" {
		t.Fatalf("report lost the base: %+v %q", rep.m["journal.records_per_fsync"], rep.note["journal.records_per_fsync"])
	}
}

func TestMedianAndMean(t *testing.T) {
	if m := median([]float64{9, 1, 5, 3, 7}); m != 5 {
		t.Fatalf("median %v, want 5", m)
	}
	if m := mean([]float64{1, 2, 3, 6}); math.Abs(m-3) > 1e-12 {
		t.Fatalf("mean %v, want 3", m)
	}
	if mean(nil) != 0 {
		t.Fatal("mean of nothing is not 0")
	}
}

func TestYieldDigest(t *testing.T) {
	a := [][]epochOut{{{true, 0.7}}, {{true, 0.8}, {true, 0.81}, {true, 0.79}}}
	b := [][]epochOut{{{true, 0.7}, {true, 0.6}}, {{true, 0.8}, {true, 0.81}, {true, 0.5}}}
	if yieldDigest(a, []int{1, 2}) != yieldDigest(b, []int{1, 2}) {
		t.Fatal("digests of equal prefixes differ")
	}
	if yieldDigest(a, []int{1, 3}) == yieldDigest(b, []int{1, 3}) {
		t.Fatal("digests of different epochs agree")
	}
}

func TestFileKind(t *testing.T) {
	for name, want := range map[string]string{
		"d/shard-0/wal-00000000000000000001.seg":       "segment",
		"d/shard-1/snap-00000000000000004096.json":     "snapshot",
		"d/shard-1/snap-00000000000000004096.json.tmp": "snapshot",
		"d/shard-2/chain.json.tmp":                     "manifest",
		"d/shards.json":                                "manifest",
		"d/shard-0/LOCK":                               "other",
	} {
		if got := fileKind(name); got != want {
			t.Errorf("fileKind(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestSlowdownIsCalibrationTimeOverReference(t *testing.T) {
	s := speed{Reps: 400, Took: 400 * calRefRep * 3 / 2}
	if got := s.slowdown(); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("slowdown = %v, want 1.5", got)
	}
	if calibrate(1) <= 0 {
		t.Fatal("calibrate(1) took no time")
	}
}

func TestEndToEndScalesTimesAndRatesBySlowdown(t *testing.T) {
	ph := &phase{Speed: speed{Reps: 100, Took: 200 * calRefRep}} // slowdown 2
	ph.add(&roundOut{
		Window:   iv(0, 1000),
		Admitted: 1000,
		Recovery: 500 * time.Millisecond,
		Cost:     usage{CPU: 100 * time.Millisecond},
	})
	u := &untraced{
		setups: []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond},
		ph:     ph,
		rssMB:  []float64{50},
	}
	r, client := endToEnd(spec{Shape: shapeBulk}, u)
	for name, want := range map[string]float64{
		"setup_s":          0.01, // 20 ms measured, machine twice as slow
		"throughput_per_s": 2000,
		"cpu_us_per_op":    50, // 100 us of CPU per service measured
		"recovery_s":       0.25,
		"peak_rss_mb":      50, // memory is not scaled
	} {
		if got := r.m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := client.m["client.slowdown"].Value; got != 2 {
		t.Errorf("client.slowdown = %v, want 2", got)
	}
}
