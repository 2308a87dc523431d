package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples a reported percentile must have above
// it; with fewer, the tail is a handful of outliers, not a percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie strictly above its rank. xs need
// not be sorted and is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx > n-1 {
		idx = n - 1
	}
	return s[idx], n-1-idx >= minBeyond
}

// minSamples is the smallest sample count at which percentile(_, q) is ok.
func minSamples(q float64) int {
	for n := 1; ; n++ {
		idx := int(math.Ceil(q*float64(n))) - 1
		if n-1-idx >= minBeyond {
			return n
		}
	}
}

// median is the nearest-rank median; it needs no tail.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

// mean returns the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a quotient reported together with its base, so a reader can
// tell 1/1 from 1000/1000.
type ratio struct {
	Num, Den float64
}

// Value returns Num/Den, 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g/%.6g", r.Num, r.Den)
}

// interval is a half-open time span [Start, End).
type interval struct {
	Start, End time.Time
}

func (iv interval) dur() time.Duration { return iv.End.Sub(iv.Start) }

// covered returns how much of parent the union of children covers; parts of
// a child outside parent do not count, and overlapping children count once.
func covered(parent interval, children []interval) time.Duration {
	var cs []interval
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var total time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(cs) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent interval, children []interval) time.Duration {
	return parent.dur() - covered(parent, children)
}

// openLoopTiming returns an open-loop request's latency, charged from the
// instant it was due (so a stall also delays every request queued behind
// it), and how late the generator actually sent it.
func openLoopTiming(due, sent, done time.Time) (latency, late time.Duration) {
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return done.Sub(due), late
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
