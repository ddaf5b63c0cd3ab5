package abmm_test

// One benchmark per paper table/figure (DESIGN.md §3), plus ablations.
// Sizes are reduced so `go test -bench=. -benchmem` completes in
// minutes; run cmd/experiments -paper for full-scale reproductions.

import (
	"fmt"
	"testing"

	"abmm"
	"abmm/internal/algos"
	"abmm/internal/comm"
	"abmm/internal/core"
	"abmm/internal/dist"
	"abmm/internal/experiments"
	"abmm/internal/matrix"
	"abmm/internal/obs"
	"abmm/internal/scaling"
	"abmm/internal/stability"
)

func benchParams() experiments.Params {
	p := experiments.Default()
	p.Fig2ASizes = []int{512}
	p.Fig2BSize = 512
	p.Fig2BLevels = []int{0, 1, 2}
	p.ErrorSize = 256
	p.ErrorRuns = 2
	p.Fig3Size = 243
	p.Fig3Runs = 2
	p.Fig4Size = 256
	p.Fig4Runs = 2
	p.Reps = 1
	return p
}

// BenchmarkTable1Costs regenerates Table I (symbolic; cost/bound
// computation from exact coefficients).
func BenchmarkTable1Costs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TableI().String()
	}
}

// BenchmarkTable2Catalog regenerates Table II (standard vs alternative
// basis catalog, including Kronecker composition and decomposition).
func BenchmarkTable2Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TableII().String()
	}
}

// BenchmarkTable3Comm regenerates Table III (analytic model + LRU cache
// simulation).
func BenchmarkTable3Comm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.TableIII(true).String()
	}
}

// BenchmarkFig1Scatter regenerates the Figure 1 scatter family.
func BenchmarkFig1Scatter(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig1(p).String()
	}
}

// BenchmarkFig2ARuntime regenerates Figure 2(A) at reduced size: the
// per-algorithm runtime sweep normalized to classical.
func BenchmarkFig2ARuntime(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig2A(p).String()
	}
}

// BenchmarkFig2BLevels regenerates Figure 2(B): runtime by recursion
// depth at fixed size.
func BenchmarkFig2BLevels(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig2B(p).String()
	}
}

// BenchmarkFig2CError regenerates Figure 2(C): max abs error on
// U(-1,1).
func BenchmarkFig2CError(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig2C(p).String()
	}
}

// BenchmarkFig2DError regenerates Figure 2(D): max abs error on U(0,1).
func BenchmarkFig2DError(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig2D(p).String()
	}
}

// BenchmarkFig3Decompositions regenerates Figure 3: errors of the
// ⟨3,3,3;23⟩ decomposition ladder.
func BenchmarkFig3Decompositions(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig3(p).String()
	}
}

// BenchmarkFig4Scaling regenerates Figure 4: relative error under the
// scaling methods for standard vs alternative basis Strassen.
func BenchmarkFig4Scaling(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4(p).String()
	}
}

// --- Kernel benchmarks: per-algorithm multiply throughput ---

func benchMultiply(b *testing.B, name string, n, levels int, opt core.Options) {
	alg, err := abmm.Lookup(name)
	if err != nil {
		b.Fatal(err)
	}
	a := matrix.New(n, n)
	c := matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	c.FillUniform(matrix.Rand(2), -1, 1)
	opt.Levels = levels
	mu := core.New(alg, opt)
	dst := matrix.New(n, n)
	b.SetBytes(int64(n) * int64(n) * 8 * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.MultiplyInto(dst, a, c)
	}
}

// BenchmarkMultiplyInto measures the plan/execute split directly:
// "cold" compiles a fresh plan (and discards its arenas) every
// iteration, the one-shot cost; "warm" reuses one Multiplier, whose
// cached plan and pooled arenas make the steady state allocation-free
// with Workers=1 (parallel runs still pay goroutine machinery).
func BenchmarkMultiplyInto(b *testing.B) {
	alg, err := abmm.Lookup("ours")
	if err != nil {
		b.Fatal(err)
	}
	const levels = 2
	for _, n := range []int{512, 1024} {
		a := matrix.New(n, n)
		c := matrix.New(n, n)
		a.FillUniform(matrix.Rand(1), -1, 1)
		c.FillUniform(matrix.Rand(2), -1, 1)
		dst := matrix.New(n, n)
		for _, workers := range []int{1, 0} {
			opt := core.Options{Levels: levels, Workers: workers}
			b.Run(fmt.Sprintf("cold/n=%d/l=%d/w=%d", n, levels, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					core.NewPlan(alg, opt, n, n, n).MultiplyInto(dst, a, c)
				}
			})
			b.Run(fmt.Sprintf("warm/n=%d/l=%d/w=%d", n, levels, workers), func(b *testing.B) {
				mu := core.New(alg, opt)
				mu.MultiplyInto(dst, a, c) // compile the plan outside the loop
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mu.MultiplyInto(dst, a, c)
				}
			})
		}
	}
}

// BenchmarkMultiplyInto_NoopRecorder guards the observability overhead
// contract: the warm Workers=1 path must stay 0 allocs/op and match the
// plain BenchmarkMultiplyInto warm numbers both with no recorder (the
// nil no-op default) and with a live stats Collector attached.
func BenchmarkMultiplyInto_NoopRecorder(b *testing.B) {
	alg, err := abmm.Lookup("ours")
	if err != nil {
		b.Fatal(err)
	}
	const n, levels = 512, 2
	a := matrix.New(n, n)
	c := matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	c.FillUniform(matrix.Rand(2), -1, 1)
	dst := matrix.New(n, n)
	for _, cfg := range []struct {
		name string
		rec  obs.Recorder
	}{
		{"noop", nil},
		{"collector", obs.NewCollector()},
	} {
		b.Run(fmt.Sprintf("%s/n=%d/l=%d/w=1", cfg.name, n, levels), func(b *testing.B) {
			mu := core.New(alg, core.Options{Levels: levels, Workers: 1, Recorder: cfg.rec})
			mu.MultiplyInto(dst, a, c) // compile the plan outside the loop
			b.SetBytes(int64(n) * int64(n) * 8 * 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mu.MultiplyInto(dst, a, c)
			}
		})
	}
}

func BenchmarkMultiply(b *testing.B) {
	for _, name := range []string{"strassen", "winograd", "alt-winograd", "ours", "laderman"} {
		levels := 2
		b.Run(fmt.Sprintf("%s/n=512/l=%d", name, levels), func(b *testing.B) {
			benchMultiply(b, name, 512, levels, core.Options{})
		})
	}
}

func BenchmarkClassicalKernel(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := matrix.New(n, n)
			x := matrix.New(n, n)
			c := matrix.New(n, n)
			a.FillUniform(matrix.Rand(1), -1, 1)
			x.FillUniform(matrix.Rand(2), -1, 1)
			b.SetBytes(int64(n) * int64(n) * 8 * 3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				matrix.Mul(c, a, x, 0)
			}
		})
	}
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationLevels sweeps recursion depth for the paper's
// algorithm: the arithmetic savings against the linear-phase overhead.
func BenchmarkAblationLevels(b *testing.B) {
	for _, l := range []int{0, 1, 2, 3} {
		b.Run(fmt.Sprintf("ours/l=%d", l), func(b *testing.B) {
			benchMultiply(b, "ours", 512, l, core.Options{})
		})
	}
}

// BenchmarkAblationScaling measures the O(n²) overhead of diagonal
// scaling relative to the multiplication.
func BenchmarkAblationScaling(b *testing.B) {
	alg, _ := abmm.Lookup("ours")
	n := 512
	a := matrix.New(n, n)
	x := matrix.New(n, n)
	matrix.FillPair(a, x, matrix.DistPositive, matrix.Rand(1))
	for _, m := range []scaling.Method{scaling.None, scaling.RepeatedOutsideInside} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = scaling.Multiply(scaling.NewConfig(m), a, x, func(p, q *matrix.Matrix) *matrix.Matrix {
					return core.Multiply(alg, p, q, core.Options{Levels: 2})
				})
			}
		})
	}
}

// BenchmarkAblationStabilityAnalysis measures the analysis layer
// (stability vector, prefactors, verification) on the largest catalog
// entry.
func BenchmarkAblationStabilityAnalysis(b *testing.B) {
	lad := algos.Laderman()
	b.Run("factor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = stability.Factor(lad)
		}
	})
	b.Run("brent-verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := lad.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCacheSimulator measures LRU trace throughput.
func BenchmarkCacheSimulator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = comm.Trace(algos.Ours(), 128, 2, comm.NewCache(8*1024, 8))
	}
}

// BenchmarkDistributed measures the simulated message-passing BFS
// runtime (communication included) against the single-node engine.
func BenchmarkDistributed(b *testing.B) {
	spec, _ := abmm.Lookup("strassen")
	n := 392
	a := matrix.New(n, n)
	x := matrix.New(n, n)
	a.FillUniform(matrix.Rand(1), -1, 1)
	x.FillUniform(matrix.Rand(2), -1, 1)
	for _, procs := range []int{1, 7} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dist.Multiply(spec.Spec, a, x, procs, dist.Options{LocalLevels: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInPlaceTransform compares in-place elementary
// execution of the basis transformations against the out-of-place
// recursion.
func BenchmarkAblationInPlaceTransform(b *testing.B) {
	alg, _ := abmm.Lookup("ours")
	phi := alg.Phi
	const levels = 4
	rows := 1
	for i := 0; i < levels; i++ {
		rows *= phi.D1
	}
	rows *= 32
	in := matrix.New(rows, 64)
	in.FillUniform(matrix.Rand(1), -1, 1)
	b.Run("in-place", func(b *testing.B) {
		b.SetBytes(int64(rows) * 64 * 8)
		for i := 0; i < b.N; i++ {
			work := in.Clone()
			if !phi.ApplyInPlace(work, levels, 0) {
				b.Fatal("in-place refused")
			}
		}
	})
	b.Run("out-of-place", func(b *testing.B) {
		b.SetBytes(int64(rows) * 64 * 8)
		for i := 0; i < b.N; i++ {
			_ = phi.Apply(in, levels, 0)
		}
	})
}
