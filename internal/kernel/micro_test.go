package kernel

import (
	"fmt"
	"testing"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// microPaths lists every micro-kernel implementation, narrowest first.
var microPaths = []microImpl{pathGeneric, pathAVX2, pathAVX512}

// supported reports whether the host can run p.
func (p microImpl) supported() bool {
	switch p {
	case pathAVX512:
		return haveAVX512
	case pathAVX2:
		return haveAVX2
	}
	return true
}

// forceMicroPath is the test hook that makes microKernel dispatch to p
// until the test ends, then restores the init-time choice. It skips
// the test when the host cannot run p.
func forceMicroPath(t testing.TB, p microImpl) {
	t.Helper()
	if !p.supported() {
		t.Skipf("host does not support the %s micro-kernel", p)
	}
	prev := microPath
	microPath = p
	t.Cleanup(func() { microPath = prev })
}

// eachMicroPath runs f as one subtest per micro-kernel path, with that
// path forced.
func eachMicroPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range microPaths {
		t.Run(p.String(), func(t *testing.T) {
			forceMicroPath(t, p)
			f(t)
		})
	}
}

// TestMicroPathIsWidestSupported pins the dispatch policy: init picks
// the widest path the host supports, and MicroPath reports it.
func TestMicroPathIsWidestSupported(t *testing.T) {
	if got, want := MicroPath(), bestMicroPath().String(); got != want {
		t.Fatalf("MicroPath() = %q, want %q", got, want)
	}
	for _, p := range microPaths {
		if p > microPath && p.supported() {
			t.Errorf("init chose %s although the wider %s is supported", microPath, p)
		}
	}
}

// TestMicroKernelPathsAgree pins the micro-kernel contract directly:
// every path applied to the same packed panels and a nonzero starting
// tile must leave the tile bitwise equal to the scalar ascending-k
// chain, for odd and even kc (the assembly kernels' pair loop and
// tail).
func TestMicroKernelPathsAgree(t *testing.T) {
	for _, kc := range []int{1, 2, 3, 8, 255, 256} {
		ap := make([]float64, MR*kc)
		bp := make([]float64, NR*kc)
		for i := range ap {
			ap[i] = float64((i*37)%29-14) / 7
		}
		for i := range bp {
			bp[i] = float64((i*53)%31-15) / 3
		}
		var want [MR * NR]float64
		for x := range want {
			want[x] = float64(x%5) / 9
		}
		start := want
		for r := 0; r < MR; r++ {
			for c := 0; c < NR; c++ {
				v := want[r*NR+c]
				for k := 0; k < kc; k++ {
					v += ap[k*MR+r] * bp[k*NR+c]
				}
				want[r*NR+c] = v
			}
		}
		t.Run(fmt.Sprintf("kc=%d", kc), func(t *testing.T) {
			eachMicroPath(t, func(t *testing.T) {
				acc := start
				microKernel(ap, bp, &acc)
				if acc != want {
					t.Fatalf("tile differs from the scalar chain:\n got %v\nwant %v", acc, want)
				}
			})
		})
	}
}

// TestGEMMBitwiseAcrossPaths pins the fused contract on every path: a
// fused (multi-term) pack must equal packing the materialized
// combination bitwise, and the scatter (scaled, multi-output) and
// direct write-outs must produce the same bits as the generic path —
// the tile width and instruction set change no per-element rounding
// chain.
func TestGEMMBitwiseAcrossPaths(t *testing.T) {
	const m, k, n = 37, 19, 23 // odd shapes exercise edge tiles
	mk := func(rows, cols int, seed uint64) *matrix.Matrix {
		x := matrix.New(rows, cols)
		x.FillUniform(matrix.Rand(seed), -1, 1)
		return x
	}
	aSrc := []*matrix.Matrix{mk(m, k, 3), mk(m, k, 4), mk(m, k, 5)}
	bSrc := []*matrix.Matrix{mk(k, n, 6), mk(k, n, 7)}
	aCo := []float64{1, -1, 0.5}
	bCo := []float64{-0.25, 3}
	aTerms := []Term{{Coeff: aCo[0], M: aSrc[0]}, {Coeff: aCo[1], M: aSrc[1]}, {Coeff: aCo[2], M: aSrc[2]}}
	bTerms := []Term{{Coeff: bCo[0], M: bSrc[0]}, {Coeff: bCo[1], M: bSrc[1]}}
	s := matrix.New(m, k)
	matrix.LinearCombine(s, aCo, aSrc, 1)
	tt := matrix.New(k, n)
	matrix.LinearCombine(tt, bCo, bSrc, 1)
	sTerm := []Term{{Coeff: 1, M: s}}
	tTerm := []Term{{Coeff: 1, M: tt}}

	// run computes the scatter write-out (two scaled outputs, overwrite
	// then accumulate) and the direct write-out (overwrite, accumulate)
	// for one operand form.
	run := func(at, bt []Term, bl Blocking) []*matrix.Matrix {
		sc := []Out{{Coeff: 2, M: matrix.New(m, n)}, {Coeff: -0.5, M: mk(m, n, 9), Accum: true}}
		GEMM(sc, at, bt, bl, 1, pool.Global, nil)
		res := []*matrix.Matrix{sc[0].M, sc[1].M}
		for _, accum := range []bool{false, true} {
			c := matrix.New(m, n)
			if accum {
				c = mk(m, n, 11)
			}
			GEMM([]Out{{Coeff: 1, M: c, Accum: accum}}, at, bt, bl, 1, pool.Global, nil)
			res = append(res, c)
		}
		return res
	}
	for _, bl := range []Blocking{{}, {MC: 8, KC: 4, NC: 8}} {
		t.Run(bl.Label(), func(t *testing.T) {
			var ref []*matrix.Matrix
			t.Run("ref", func(t *testing.T) {
				forceMicroPath(t, pathGeneric)
				ref = run(aTerms, bTerms, bl)
			})
			eachMicroPath(t, func(t *testing.T) {
				fused := run(aTerms, bTerms, bl)
				mat := run(sTerm, tTerm, bl)
				for i := range fused {
					if !matrix.Equal(fused[i], mat[i]) {
						t.Errorf("out %d: fused pack differs from materialized (max diff %g)",
							i, matrix.MaxAbsDiff(fused[i], mat[i]))
					}
					if !matrix.Equal(fused[i], ref[i]) {
						t.Errorf("out %d: differs from the generic path (max diff %g)",
							i, matrix.MaxAbsDiff(fused[i], ref[i]))
					}
				}
			})
		})
	}
}

// BenchmarkMicroKernel times one micro-kernel call per iteration on an
// L1-resident panel pair (kc = 256: 8 KiB of packed A, 16 KiB of packed
// B), isolating the register tile from packing and cache misses.
func BenchmarkMicroKernel(b *testing.B) {
	const kc = 256
	ap := make([]float64, MR*kc)
	bp := make([]float64, NR*kc)
	for i := range ap {
		ap[i] = float64(i%7) / 8
	}
	for i := range bp {
		bp[i] = float64(i%5) / 4
	}
	for _, p := range microPaths {
		b.Run(p.String(), func(b *testing.B) {
			forceMicroPath(b, p)
			var acc [MR * NR]float64
			for i := 0; i < b.N; i++ {
				microKernel(ap, bp, &acc)
			}
			flops := 2 * float64(MR*NR*kc) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
