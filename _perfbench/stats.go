package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail is reported at, highest first.
// A timing's tail is the highest of these with at least minBeyond
// samples above it, so a tail is never read off a handful of points.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// windowMin is the fewest samples a tail window holds: enough for p95
// under the minBeyond rule. A p99 needs windows of 1000, and the open
// loop completes under 2000 requests a run: a p99 over all of them rests
// on ten requests, which one stall of the shared host can hold. Windows
// of 200 give the open loop about nine, and their median p95 tracks the
// server, not the stall.
const windowMin = 200

// summary is one timing distribution as the benchmark reports it: the
// median, the tail, and the number of samples both came from. The tail
// is read per window of at least windowMin consecutive samples, at the
// percentile the sample-count rule allows, and the median over windows
// is reported: a stall of the shared host inflates the requests of one
// window, not every run's tail. With fewer than two windows' worth of
// samples the tail is read over all of them.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // the percentile Tail was read at; 100 means the max
	Windows int
}

// percentile returns the nearest-rank q-th percentile (0 < q ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, q float64) float64 {
	return sorted[rankIndex(len(sorted), q)]
}

// rankIndex is the index of the nearest-rank q-th percentile among n
// ascending samples.
func rankIndex(n int, q float64) int {
	// The epsilon keeps q·n/100 that is whole in exact arithmetic from
	// rounding up a rank (99.9% of 10000 must be rank 9990, not 9991).
	i := int(math.Ceil(q*float64(n)/100-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples strictly beyond its rank, or 100 (the maximum)
// when n is too small for any of them.
func tailPercentile(n int) float64 {
	for _, q := range tailLadder {
		if n-1-rankIndex(n, q) >= minBeyond {
			return q
		}
	}
	return 100
}

// summarize reports xs, which must be in arrival order.
func summarize(xs []float64) summary { return summarizeUpTo(xs, 100) }

// summarizeUpTo is summarize with the tail read at no higher percentile
// than maxPct. A workload whose sample count straddles a step of the
// ladder would otherwise read its tail at p75 in one run and at p90 in
// the next.
func summarizeUpTo(xs []float64, maxPct float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	k := max(1, len(xs)/windowMin)
	tails := make([]float64, k)
	var q float64
	for w := range tails {
		win := sorted(xs[w*len(xs)/k : (w+1)*len(xs)/k])
		q = tailPercentile(len(win))
		if q < 100 {
			q = min(q, maxPct)
		}
		tails[w] = percentile(win, q)
	}
	return summary{N: len(xs), P50: percentile(sorted(xs), 50), Tail: median(tails), TailPct: q, Windows: k}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLabel names the percentile a summary's tail was read at, and the
// windows it is the median over.
func (s summary) tailLabel() string {
	p := fmt.Sprintf("p%g", s.TailPct)
	if s.TailPct >= 100 {
		p = "max"
	}
	if s.Windows > 1 {
		p += fmt.Sprintf(" (median of %d windows)", s.Windows)
	}
	return p
}

// median of xs (nearest rank).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return percentile(sorted(xs), 50)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
