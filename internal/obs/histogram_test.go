package obs

import (
	"math"
	"sync"
	"testing"
)

// TestHistBucketEdges checks the bucket map against its inverse:
// every bucket's bounds contain exactly the values that map to it.
func TestHistBucketEdges(t *testing.T) {
	for _, v := range []uint64{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 100, 1023, 1024,
		1<<20 - 1, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := histBucket(v)
		lo, hi := histBucketBounds(i)
		// float64(MaxInt64) rounds up to the top bucket's hi edge exactly;
		// tolerate that one representational artifact.
		if float64(v) < lo || (float64(v) >= hi && v != math.MaxInt64) {
			t.Errorf("value %d → bucket %d with bounds [%g, %g)", v, i, lo, hi)
		}
	}
	// Bucket edges are contiguous and monotone.
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := histBucketBounds(i)
		// Bounds are exact powers-of-two sums; contiguity is bitwise.
		//abmm:allow float-discipline
		if lo != prevHi {
			t.Fatalf("bucket %d starts at %g, previous ended at %g", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%g, %g)", i, lo, hi)
		}
		prevHi = hi
	}
	// Relative bucket width is at most 25% above the exact range.
	for i := histSub; i < histBuckets; i++ {
		lo, hi := histBucketBounds(i)
		if w := (hi - lo) / lo; w > 0.25+1e-12 {
			t.Errorf("bucket %d width %g%% of lo", i, 100*w)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000: quantiles of a uniform ramp are known to bucket accuracy.
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Sum != 1000*1001/2 || s.Max != 1000 {
		t.Fatalf("count/sum/max = %d/%d/%d", s.Count, s.Sum, s.Max)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 500}, {0.95, 950}, {0.99, 990}, {1.0, 1000},
	} {
		got := s.Quantile(tc.q)
		if got < tc.want*0.85 || got > tc.want*1.15 {
			t.Errorf("q%g = %g, want within 15%% of %g", tc.q, got, tc.want)
		}
	}
	if m := s.Mean(); m < 480 || m > 520 {
		t.Errorf("mean = %g, want ~500.5", m)
	}
	st := s.Stats(1e-3)
	if st.Count != 1000 || st.Max != 1.0 {
		t.Errorf("scaled stats: %+v", st)
	}

	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.Quantile(0.5) != 0 {
		t.Errorf("reset left state: %+v", s)
	}
}

// TestQuantileCountAheadOfBuckets pins the guard Snapshot's load
// order relies on: a snapshot taken mid-Observe can count observations
// its buckets do not hold yet, and a quantile whose rank falls past the
// bucket total must report Max, not run off the bucket array or
// interpolate past it.
func TestQuantileCountAheadOfBuckets(t *testing.T) {
	var s HistSnapshot
	s.Count = 10
	s.Sum = 40
	s.Max = 7
	s.Buckets[histBucket(2)] = 5 // five of the ten observations landed
	if got := s.Quantile(0.99); got != 7 {
		t.Errorf("Quantile(0.99) = %g, want Max 7", got)
	}
	if got := s.Quantile(1); got != 7 {
		t.Errorf("Quantile(1) = %g, want Max 7", got)
	}
	if got := s.Quantile(0.3); got < 2 || got >= 3 {
		t.Errorf("Quantile(0.3) = %g, want inside bucket [2, 3)", got)
	}
}

func TestHistogramNilAndNegative(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	h.Reset()
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 {
		t.Errorf("nil histogram snapshot: %+v", s)
	}
	var g Histogram
	g.Observe(-7) // clamps to 0
	if s := g.Snapshot(); s.Count != 1 || s.Sum != 0 || s.Buckets[0] != 1 {
		t.Errorf("negative observation: %+v", s)
	}
}

// TestHistogramZeroAlloc pins the record-path contract the warm
// MultiplyInto guarantee depends on.
func TestHistogramZeroAlloc(t *testing.T) {
	var h Histogram
	if av := testing.AllocsPerRun(200, func() { h.Observe(123456) }); av != 0 {
		t.Fatalf("Observe allocated %.1f objects/op, want 0", av)
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines;
// run under -race (the obs package is in the Makefile race gate) this
// pins the lock-free bucket updates.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, reps = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				h.Observe(int64(g*1000 + r))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*reps {
		t.Errorf("count = %d, want %d", s.Count, goroutines*reps)
	}
	var n int64
	for _, c := range s.Buckets {
		n += c
	}
	if n != s.Count {
		t.Errorf("bucket sum %d != count %d", n, s.Count)
	}
	if s.Max != 7499 {
		t.Errorf("max = %d, want 7499", s.Max)
	}
}
