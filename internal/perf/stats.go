package perf

import (
	"math"
	"sort"
	"time"
)

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// xs is left as it is, so index-aligned samples stay paired. An empty
// sample has no percentile and yields 0.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// Quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the default
// "exclusive" method), so spreads printed here match any external check
// written against that definition. It needs at least two samples.
func Quartiles(xs []float64) (q1, q3 float64, ok bool) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		return 0, 0, false
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(3), true
}

// Spread is the interquartile distance of xs as a share of its median —
// the run-to-run noise figure the benchmark's bounds are held against.
func Spread(xs []float64) float64 {
	q1, q3, ok := Quartiles(xs)
	med := Median(xs)
	if !ok || med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// PairedMedian returns the median of the per-index differences a[i]-b[i]
// over the common prefix: the self time of a layer whose calls a and b
// were timed on the same queries in the same run.
func PairedMedian(a, b []float64) float64 {
	n := min(len(a), len(b))
	d := make([]float64, n)
	for i := range d {
		d[i] = a[i] - b[i]
	}
	return Percentile(d, 50)
}

// us and ms convert a duration to fractional micro- and milliseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Verdict classifies one workload × metric comparison of a change against
// its parent.
type Verdict string

// The four comparison outcomes.
const (
	Improved   Verdict = "improved"
	NoWorse    Verdict = "no-worse"
	Unresolved Verdict = "unresolved"
	Regressed  Verdict = "regressed"
)

// MinPairs is the fewest parent/change pairs a comparison may rest on.
const MinPairs = 10

// Judge applies the sandbox comparison rule to index-aligned runs of a
// parent and a change (pair i ran back to back, alternating which side went
// first). A gain is claimed only when the change wins at least nine tenths
// of the pairs (ties count for neither side) and the medians differ by more
// than the parent's own interquartile distance. Otherwise the change is
// no-worse when its median is within bound (a share of the parent median)
// of the parent's, regressed when it is further off, and unresolved when
// fewer than MinPairs pairs exist or the parent's own spread exceeds the
// bound — unless every change run beats every parent run.
func Judge(parent, change []float64, higherBetter bool, bound float64) Verdict {
	n := min(len(parent), len(change))
	if n < MinPairs {
		return Unresolved
	}
	parent, change = parent[:n], change[:n]
	better := func(a, b float64) bool { // a reads better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins := 0
	for i := range n {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	mp, mc := Median(parent), Median(change)
	q1, q3, _ := Quartiles(parent)
	if wins*10 >= 9*n && better(mc, mp) && math.Abs(mc-mp) > q3-q1 {
		return Improved
	}
	if mp == 0 {
		return Unresolved
	}
	if (q3-q1)/math.Abs(mp) > bound {
		worstChange, bestParent := change[0], parent[0]
		for i := range n {
			if better(worstChange, change[i]) {
				worstChange = change[i]
			}
			if better(parent[i], bestParent) {
				bestParent = parent[i]
			}
		}
		if better(worstChange, bestParent) {
			return NoWorse
		}
		return Unresolved
	}
	if worseBy(mp, mc, higherBetter) > bound {
		return Regressed
	}
	return NoWorse
}

// worseBy is how much worse b reads than a, as a share of a (negative when
// b is better).
func worseBy(a, b float64, higherBetter bool) float64 {
	if a == 0 {
		return 0
	}
	g := (b - a) / math.Abs(a)
	if higherBetter {
		return -g
	}
	return g
}
