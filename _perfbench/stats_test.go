package main

import "testing"

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99.9},
		{9999, 99},
		{1000, 99},
		{999, 95},
		{200, 95},
		{100, 90},
		{40, 75},
		{21, 50},
		{20, 50},
		{19, 100},
		{1, 100},
	}
	for _, c := range cases {
		q := tailPercentile(c.n)
		if q != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, q, c.want)
		}
		if q < 100 {
			if beyond := c.n - 1 - rankIndex(c.n, q); beyond < minBeyond {
				t.Errorf("n=%d p%g leaves %d samples beyond, want >= %d", c.n, q, beyond, minBeyond)
			}
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 down to 1: summarize must sort
	}
	s := summarize(xs)
	if s.N != 100 || s.P50 != 50 || s.TailPct != 90 || s.Tail != 90 {
		t.Fatalf("summarize(1..100) = %+v, want N=100 P50=50 tail p90=90", s)
	}
	if s.tailLabel() != "p90" {
		t.Errorf("tailLabel = %q, want p90", s.tailLabel())
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	small := summarize([]float64{3, 1, 2})
	if small.TailPct != 100 || small.Tail != 3 || small.tailLabel() != "max" {
		t.Errorf("summarize of 3 samples = %+v, want the max as tail", small)
	}
	if (summarize(nil) != summary{}) {
		t.Error("summarize(nil) is not the zero summary")
	}
}

func TestSummarizeTailIsMedianOverWindows(t *testing.T) {
	// Three windows of 200 samples; a stall makes the last 30 of the
	// second window slow. Its p95 rises, the other two stay at 1.
	xs := make([]float64, 3*windowMin)
	for i := range xs {
		xs[i] = 1
	}
	for i := 2*windowMin - 30; i < 2*windowMin; i++ {
		xs[i] = 50
	}
	s := summarize(xs)
	if s.Windows != 3 || s.TailPct != 95 || s.Tail != 1 {
		t.Fatalf("summarize = %+v, want the median of three window p95s, 1", s)
	}
	if all := summarize(xs[:2*windowMin-1]); all.Windows != 1 || all.Tail != 50 {
		t.Fatalf("under two windows: %+v, want one window whose p95 is 50", all)
	}
	if s.tailLabel() != "p95 (median of 3 windows)" {
		t.Errorf("tailLabel = %q", s.tailLabel())
	}
}

func TestSummarizeUpToCapsTheTail(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if s := summarizeUpTo(xs, 75); s.TailPct != 75 || s.Tail != 113 {
		t.Fatalf("summarizeUpTo(1..150, 75) = %+v, want tail p75=113", s)
	}
	if s := summarizeUpTo(xs[:50], 90); s.TailPct != 75 {
		t.Fatalf("summarizeUpTo(1..50, 90) = %+v, want the rule's p75 below the cap", s)
	}
	if s := summarizeUpTo(xs[:5], 50); s.TailPct != 100 || s.Tail != 5 {
		t.Fatalf("summarizeUpTo(1..5, 50) = %+v, want the max: too few samples for any percentile", s)
	}
}
