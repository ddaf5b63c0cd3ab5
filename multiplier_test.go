package abmm_test

// Tests for the plan/execute split: destination-passing multiplication
// through cached plans, plan-cache accounting, padded odd/prime shapes,
// the warm-path allocation guarantee, and one Multiplier shared by many
// goroutines (run with `go test -race`, see the Makefile race target).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"abmm"
	"abmm/internal/matrix"
	"abmm/internal/tune"
)

const sentinel = 12345.0

// mulCheck multiplies an m×k by k×n pair through mu.MultiplyInto with
// dst embedded in a sentinel-filled frame, and verifies the result
// against the classical kernel, the frame's integrity (the plan must
// crop exactly), and that dst is reusable for a second product.
func mulCheck(t *testing.T, mu *abmm.Multiplier, m, k, n int, tol float64) {
	t.Helper()
	a, b := abmm.NewMatrix(m, k), abmm.NewMatrix(k, n)
	a.FillUniform(abmm.Rand(uint64(m*31+k)), -1, 1)
	b.FillUniform(abmm.Rand(uint64(k*31+n)), -1, 1)

	frame := abmm.NewMatrix(m+2, n+2)
	for i := 0; i < frame.Rows; i++ {
		for j := 0; j < frame.Cols; j++ {
			frame.Set(i, j, sentinel)
		}
	}
	dst := frame.View(1, 1, m, n)

	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			// Second pass with fresh inputs: dst must be fully
			// overwritten, not accumulated into.
			a.FillUniform(abmm.Rand(uint64(7*m+pass)), -1, 1)
			b.FillUniform(abmm.Rand(uint64(7*n+pass)), -1, 1)
		}
		mu.MultiplyInto(dst, a, b)
		want := abmm.MultiplyClassical(a, b, 1)
		if d := matrix.MaxAbsDiff(dst, want); d > tol {
			t.Fatalf("%dx%d·%dx%d pass %d: max abs diff %g > %g", m, k, k, n, pass, d, tol)
		}
	}
	for i := 0; i < frame.Rows; i++ {
		for j := 0; j < frame.Cols; j++ {
			if i >= 1 && i <= m && j >= 1 && j <= n {
				continue
			}
			if frame.At(i, j) != sentinel {
				t.Fatalf("%dx%d·%dx%d: frame[%d][%d] overwritten (crop leaked)", m, k, k, n, i, j)
			}
		}
	}
}

// TestMultiplyIntoPadded drives the padded path through MultiplyInto on
// odd, prime, and non-square shapes for a ⟨2,2,2⟩ alternative basis
// algorithm and both ⟨3,3,3⟩ variants.
func TestMultiplyIntoPadded(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{1, 97, 1},
		{33, 45, 27},
		{63, 1, 65},
		{129, 131, 127},
	}
	big := struct{ m, k, n int }{513, 517, 129}
	for _, name := range []string{"ours", "laderman", "laderman-alt"} {
		alg, err := abmm.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 2})
			for _, s := range shapes {
				mulCheck(t, mu, s.m, s.k, s.n, 1e-10)
			}
			if !testing.Short() {
				mulCheck(t, mu, big.m, big.k, big.n, 1e-9)
			}
		})
	}
}

// TestMultiplierStats checks plan-cache accounting: repeated shapes
// hit, new shapes miss, and the LRU bound evicts.
func TestMultiplierStats(t *testing.T) {
	alg, _ := abmm.Lookup("ours")
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 1, Workers: 1, PlanCache: 2})
	a, b := abmm.NewMatrix(16, 16), abmm.NewMatrix(16, 16)
	dst := abmm.NewMatrix(16, 16)
	for i := 0; i < 3; i++ {
		mu.MultiplyInto(dst, a, b)
	}
	st := mu.Stats()
	if st.Misses != 1 || st.Hits != 2 || st.Plans != 1 {
		t.Fatalf("after 3 same-shape calls: %+v", st)
	}
	if st.ArenaBytes <= 0 {
		t.Fatalf("expected retained workspace bytes, got %+v", st)
	}
	for _, n := range []int{18, 20, 22} { // overflow the 2-plan cache
		x, y := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
		mu.MultiplyInto(abmm.NewMatrix(n, n), x, y)
	}
	st = mu.Stats()
	if st.Plans != 2 || st.Evictions != 2 {
		t.Fatalf("after overflowing cache: %+v", st)
	}
}

// TestMultiplyIntoZeroAllocWarm pins the tentpole guarantee: once a
// plan and its arenas are warm, sequential MultiplyInto allocates
// nothing.
// TestMultiplyIntoCtxZeroAllocUntraced pins the tracing-disabled cost
// of the context path: with a background context (no cancelation
// watcher) and no reqtrace.Trace attached, warm MultiplyIntoCtx is as
// allocation-free as MultiplyInto — the trace lookup is one context
// value read and every recorder hook is a nil no-op.
func TestMultiplyIntoCtxZeroAllocUntraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, _ := abmm.Lookup("ours")
	const n = 128
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 1})
	ctx := context.Background()
	if err := mu.MultiplyIntoCtx(ctx, dst, a, b); err != nil {
		t.Fatal(err)
	}
	if err := mu.MultiplyIntoCtx(ctx, dst, a, b); err != nil {
		t.Fatal(err)
	}
	if av := testing.AllocsPerRun(10, func() { mu.MultiplyIntoCtx(ctx, dst, a, b) }); av != 0 {
		t.Fatalf("warm untraced MultiplyIntoCtx allocated %.1f objects/op, want 0", av)
	}
}

func TestMultiplyIntoZeroAllocWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, _ := abmm.Lookup("ours")
	const n = 128
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 1})
	mu.MultiplyInto(dst, a, b)
	mu.MultiplyInto(dst, a, b)
	if av := testing.AllocsPerRun(10, func() { mu.MultiplyInto(dst, a, b) }); av != 0 {
		t.Fatalf("warm MultiplyInto allocated %.1f objects/op, want 0", av)
	}
}

// TestMultiplyIntoZeroAllocRecorder extends the warm-path guarantee to
// observability: attaching a live Collector must not cost allocations —
// spans are value types and the collector aggregates with atomics,
// including the log-bucketed latency/phase/arena histograms every
// recorded execution feeds.
func TestMultiplyIntoZeroAllocRecorder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, _ := abmm.Lookup("ours")
	const n = 128
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	rec := abmm.NewCollector()
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 1, Recorder: rec})
	mu.MultiplyInto(dst, a, b)
	mu.MultiplyInto(dst, a, b)
	if av := testing.AllocsPerRun(10, func() { mu.MultiplyInto(dst, a, b) }); av != 0 {
		t.Fatalf("warm MultiplyInto with Collector allocated %.1f objects/op, want 0", av)
	}
	// The snapshot spans the cold compile too, so lifetime scratch
	// reuse is slightly below 1; the warm majority dominates.
	s := rec.Snapshot()
	if s.Mults < 12 || s.Arena.ReuseRatio < 0.9 {
		t.Fatalf("collector missed warm runs: %+v", s)
	}
	// Histogram recording happened on that same zero-alloc path: the
	// latency and arena-request distributions carry every execution and
	// report coherent quantiles.
	if s.MulDuration.Count != s.Mults || !(s.MulDuration.P50 > 0) ||
		s.MulDuration.P50 > s.MulDuration.P99 || s.MulDuration.P99 > s.MulDuration.Max {
		t.Fatalf("latency histogram incoherent: %+v", s.MulDuration)
	}
	if s.ArenaRequest.Count != s.Arena.Releases || !(s.ArenaRequest.Max > 0) {
		t.Fatalf("arena histogram incoherent: %+v", s.ArenaRequest)
	}
	for _, p := range s.Phases {
		if p.Count > 0 && (!(p.P50 > 0) || p.P50 > p.P99) {
			t.Fatalf("phase %s histogram incoherent: %+v", p.Name, p)
		}
	}
}

// TestMultiplyIntoZeroAllocPlanRegistry extends the warm-path
// guarantee to per-plan attribution: with a PlanRegistry attached the
// slot is claimed once at compile time and every warm execution records
// latency/arena marks through atomics alone — still zero allocations.
func TestMultiplyIntoZeroAllocPlanRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, _ := abmm.Lookup("ours")
	const n = 128
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	reg := abmm.NewPlanRegistry(0)
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 1, Plans: reg})
	mu.MultiplyInto(dst, a, b)
	mu.MultiplyInto(dst, a, b)
	if av := testing.AllocsPerRun(10, func() { mu.MultiplyInto(dst, a, b) }); av != 0 {
		t.Fatalf("warm MultiplyInto with PlanRegistry allocated %.1f objects/op, want 0", av)
	}
	// The slot saw every execution on that zero-alloc path.
	page := reg.Page()
	if len(page.Plans) != 1 || page.Plans[0].Execs < 12 {
		t.Fatalf("plan slot missed warm runs: %+v", page)
	}
	if ps := page.Plans[0]; ps.Latency.Count != ps.Execs || !(ps.Latency.P50 > 0) ||
		ps.ArenaHighWaterBytes <= 0 {
		t.Fatalf("plan slot telemetry incoherent: %+v", ps)
	}
}

// TestMultiplyIntoZeroAllocTuned extends the warm-path guarantee to
// autotuning: the tuner is consulted exactly once, on the plan-cache
// miss, so once the tuned plan is warm, MultiplyInto allocates nothing
// — tuning is free where it matters.
func TestMultiplyIntoZeroAllocTuned(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	alg, _ := abmm.Lookup("ours")
	const n = 128
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(1), -1, 1)
	b.FillUniform(abmm.Rand(2), -1, 1)
	tn := tune.New(tune.Config{})
	tn.Install(&tune.Profile{Schema: tune.Schema, Cells: []tune.Entry{
		{M: n, K: n, N: n, Alg: "ours", Levels: 2},
	}})
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: abmm.AutoLevels, Workers: 1, Tuner: tn})
	mu.MultiplyInto(dst, a, b)
	mu.MultiplyInto(dst, a, b)
	if av := testing.AllocsPerRun(10, func() { mu.MultiplyInto(dst, a, b) }); av != 0 {
		t.Fatalf("warm MultiplyInto with tuning allocated %.1f objects/op, want 0", av)
	}
	// The plan the warm path ran carries the tuned identity.
	if d := mu.Plan(n, n, n).Desc(); d != "ours/L2/seq/tuned" {
		t.Fatalf("plan identity = %q, want ours/L2/seq/tuned", d)
	}
	// And the product is still right.
	want := abmm.MultiplyClassical(a, b, 1)
	if d := matrix.MaxAbsDiff(dst, want); d > 1e-10 {
		t.Fatalf("tuned plan wrong by %g", d)
	}
}

// TestErrorSamplingThroughFacade drives Options.ErrorSampleEvery
// through the public API: sampled multiplications report a measured
// relative error that sits inside the predicted stability bound.
func TestErrorSamplingThroughFacade(t *testing.T) {
	alg, _ := abmm.Lookup("ours")
	const n = 96
	a, b, dst := abmm.NewMatrix(n, n), abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	a.FillUniform(abmm.Rand(3), -1, 1)
	b.FillUniform(abmm.Rand(4), -1, 1)
	rec := abmm.NewCollector()
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 1, Recorder: rec, ErrorSampleEvery: 2})
	for i := 0; i < 4; i++ {
		mu.MultiplyInto(dst, a, b)
	}
	s := rec.Snapshot()
	if s.Errors.Samples != 2 {
		t.Fatalf("4 executions at every-2: %d samples, want 2", s.Errors.Samples)
	}
	if r := s.Errors.BoundRatio.Max; !(r > 0) || r >= 1 {
		t.Fatalf("measured/bound ratio %g, want in (0, 1)", r)
	}
}

// TestMultiplierConcurrent hammers one shared Multiplier from many
// goroutines over mixed shapes and checks every product against the
// classical kernel. Under `go test -race` this exercises the plan
// cache, the arena pool, and the immutable engine for data races.
func TestMultiplierConcurrent(t *testing.T) {
	shapes := []struct{ m, k, n int }{
		{64, 64, 64},
		{48, 60, 36},
		{33, 45, 27},
		{96, 80, 64},
	}
	for _, name := range []string{"ours", "strassen"} {
		alg, err := abmm.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 2, Workers: 2})
			type testCase struct{ a, b, want *abmm.Matrix }
			cases := make([]testCase, len(shapes))
			for i, s := range shapes {
				a, b := abmm.NewMatrix(s.m, s.k), abmm.NewMatrix(s.k, s.n)
				a.FillUniform(abmm.Rand(uint64(i+1)), -1, 1)
				b.FillUniform(abmm.Rand(uint64(i+100)), -1, 1)
				cases[i] = testCase{a, b, abmm.MultiplyClassical(a, b, 1)}
			}
			const goroutines, reps = 8, 6
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for r := 0; r < reps; r++ {
						tc := cases[(g+r)%len(cases)]
						dst := abmm.NewMatrix(tc.a.Rows, tc.b.Cols)
						mu.MultiplyInto(dst, tc.a, tc.b)
						if d := matrix.MaxAbsDiff(dst, tc.want); d > 1e-10 {
							errs <- fmt.Errorf("goroutine %d rep %d (%dx%d): diff %g",
								g, r, tc.a.Rows, tc.b.Cols, d)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			st := mu.Stats()
			if st.Misses != uint64(len(shapes)) {
				t.Errorf("expected %d plan compiles, stats %+v", len(shapes), st)
			}
		})
	}
}
