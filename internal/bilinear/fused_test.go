package bilinear_test

// Equivalence tests for the fused leaf step (see fused.go for the
// precise rounding statements these pin):
//
//  1. Encode fusion is exact: packing a (coefficient, source) term list
//     is bitwise identical to materializing the linear combination with
//     matrix.LinearCombine and packing the result.
//  2. End-to-end, fused equals unfused bitwise whenever no product's
//     decode is a single unit-coefficient accumulation (e.g. classical
//     algorithms with k0 = 1, whose outputs are each written by exactly
//     one product).
//  3. Elsewhere the two schedules differ only in low-order bits — the
//     fused path chains single-output accumulations like a naive
//     c += a·b while the unfused path materializes and adds once.

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/kernel"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// TestFusedEncodePackBitwiseEqualsMaterialized pins statement 1 at the
// kernel boundary: GEMM over multi-term operand lists must match GEMM
// over the materialized combinations bitwise, because the only
// difference is where the encode arithmetic happens (during packing vs
// in a separate sweep) and both apply the same per-element operation
// order. Both calls use identical output lists so the write-out mode is
// the same; any difference would be the pack fusion's doing.
func TestFusedEncodePackBitwiseEqualsMaterialized(t *testing.T) {
	const m, k, n = 37, 19, 23 // odd shapes exercise edge tiles
	mk := func(rows, cols int, seed uint64) *matrix.Matrix {
		x := matrix.New(rows, cols)
		x.FillUniform(matrix.Rand(seed), -1, 1)
		return x
	}
	aSrc := []*matrix.Matrix{mk(m, k, 3), mk(m, k, 4), mk(m, k, 5)}
	bSrc := []*matrix.Matrix{mk(k, n, 6), mk(k, n, 7)}
	// Coefficients cover the interesting cases: copy, negate, scale.
	aCo := []float64{1, -1, 0.5}
	bCo := []float64{-0.25, 3}
	aTerms := []kernel.Term{{Coeff: aCo[0], M: aSrc[0]}, {Coeff: aCo[1], M: aSrc[1]}, {Coeff: aCo[2], M: aSrc[2]}}
	bTerms := []kernel.Term{{Coeff: bCo[0], M: bSrc[0]}, {Coeff: bCo[1], M: bSrc[1]}}

	s := matrix.New(m, k)
	matrix.LinearCombine(s, aCo, aSrc, 1)
	tt := matrix.New(k, n)
	matrix.LinearCombine(tt, bCo, bSrc, 1)
	sTerm := []kernel.Term{{Coeff: 1, M: s}}
	tTerm := []kernel.Term{{Coeff: 1, M: tt}}

	for _, bl := range []kernel.Blocking{{}, {MC: 8, KC: 4, NC: 8}} {
		// Scatter write-out: two scaled outputs, overwrite then accumulate.
		fo := []kernel.Out{{Coeff: 2, M: matrix.New(m, n)}, {Coeff: -0.5, M: matrix.New(m, n), Accum: true}}
		mo := []kernel.Out{{Coeff: 2, M: matrix.New(m, n)}, {Coeff: -0.5, M: matrix.New(m, n), Accum: true}}
		fo[1].M.FillUniform(matrix.Rand(9), -1, 1)
		mo[1].M.FillUniform(matrix.Rand(9), -1, 1)
		kernel.GEMM(fo, aTerms, bTerms, bl, 1, pool.Global, nil)
		kernel.GEMM(mo, sTerm, tTerm, bl, 1, pool.Global, nil)
		for i := range fo {
			if !matrix.Equal(fo[i].M, mo[i].M) {
				t.Errorf("blocking %+v out %d: fused pack differs from materialized pack (max diff %g)",
					bl, i, matrix.MaxAbsDiff(fo[i].M, mo[i].M))
			}
		}

		// Direct write-out: single unit output, both overwrite and accumulate.
		for _, accum := range []bool{false, true} {
			fc, mc := matrix.New(m, n), matrix.New(m, n)
			if accum {
				fc.FillUniform(matrix.Rand(11), -1, 1)
				mc.FillUniform(matrix.Rand(11), -1, 1)
			}
			kernel.GEMM([]kernel.Out{{Coeff: 1, M: fc, Accum: accum}}, aTerms, bTerms, bl, 1, pool.Global, nil)
			kernel.GEMM([]kernel.Out{{Coeff: 1, M: mc, Accum: accum}}, sTerm, tTerm, bl, 1, pool.Global, nil)
			if !matrix.Equal(fc, mc) {
				t.Errorf("blocking %+v accum=%v: direct fused pack differs from materialized (max diff %g)",
					bl, accum, matrix.MaxAbsDiff(fc, mc))
			}
		}
	}
}

// fusedPair runs one multiplication twice, fused and unfused, with
// otherwise identical options, and returns both products.
func fusedPair(alg *algos.Algorithm, m, k, n, levels int, opt bilinear.Options) (fused, unfused *matrix.Matrix) {
	a := matrix.New(m, k)
	b := matrix.New(k, n)
	a.FillUniform(matrix.Rand(uint64(m*k+levels)), -1, 1)
	b.FillUniform(matrix.Rand(uint64(k*n+levels+7)), -1, 1)
	fopt, uopt := opt, opt
	fopt.NoFuse = false
	uopt.NoFuse = true
	return bilinear.Multiply(alg.Spec, a, b, levels, fopt),
		bilinear.Multiply(alg.Spec, a, b, levels, uopt)
}

// TestFusedBitwiseEqualsUnfusedNoAccum pins statement 2: with k0 = 1
// every output group is written by exactly one product (a first-touch
// overwrite, never an accumulation), so fused and unfused agree
// bitwise at every worker count.
func TestFusedBitwiseEqualsUnfusedNoAccum(t *testing.T) {
	for _, tc := range []struct {
		alg     *algos.Algorithm
		m, k, n int
	}{
		{algos.Classical(3, 1, 4), 36, 16, 64},
		{algos.Classical(2, 1, 2), 64, 32, 64},
	} {
		for _, levels := range []int{1, 2} {
			for _, opt := range []bilinear.Options{
				{Workers: 1},
				{Workers: 4},
			} {
				fused, unfused := fusedPair(tc.alg, tc.m, tc.k, tc.n, levels, opt)
				if !matrix.Equal(fused, unfused) {
					t.Errorf("%s %dx%dx%d levels=%d opt=%+v: fused differs from unfused (max diff %g)",
						tc.alg.Name, tc.m, tc.k, tc.n, levels, opt,
						matrix.MaxAbsDiff(fused, unfused))
				}
			}
		}
	}
}

// TestFusedMatchesUnfusedWithinUlps pins statement 3: for general
// algorithms the only divergence is rounding association on
// single-output accumulations, so fused and unfused stay within a few
// ulps of each other — far inside the schedules' shared error envelope
// against classical.
func TestFusedMatchesUnfusedWithinUlps(t *testing.T) {
	for _, tc := range []struct {
		alg     *algos.Algorithm
		m, k, n int
	}{
		{algos.Strassen(), 64, 64, 64},
		{algos.Winograd(), 64, 64, 64},
		{algos.Classical(2, 2, 2), 64, 64, 64},
		{algos.Classical(3, 2, 4), 36, 16, 64},
	} {
		for _, levels := range []int{1, 2} {
			for _, opt := range []bilinear.Options{{Workers: 1}, {Workers: 4}} {
				fused, unfused := fusedPair(tc.alg, tc.m, tc.k, tc.n, levels, opt)
				if d := matrix.MaxAbsDiff(fused, unfused); d > 1e-13 {
					t.Errorf("%s %dx%dx%d levels=%d opt=%+v: fused vs unfused diff %g, want ≤ 1e-13",
						tc.alg.Name, tc.m, tc.k, tc.n, levels, opt, d)
				}
			}
		}
	}
}

// TestFusedMultiSliceStaysAccurate forces base blocks deeper than one
// kc slice (tiny KC), where the fused write-out rounds the decode once
// per slice instead of once overall. The results may differ from the
// unfused schedule in low-order bits but must stay within the
// classical error envelope.
func TestFusedMultiSliceStaysAccurate(t *testing.T) {
	opt := bilinear.Options{Workers: 2, Kernel: kernel.Blocking{MC: 16, KC: 8, NC: 16}}
	fused, unfused := fusedPair(algos.Strassen(), 64, 64, 64, 1, opt)
	if d := matrix.MaxAbsDiff(fused, unfused); d > 1e-12 {
		t.Errorf("multi-slice fused vs unfused diff %g, want ≤ 1e-12", d)
	}
	a := matrix.New(64, 64)
	b := matrix.New(64, 64)
	a.FillUniform(matrix.Rand(uint64(64*64+1)), -1, 1)
	b.FillUniform(matrix.Rand(uint64(64*64+8)), -1, 1)
	if d := matrix.MaxAbsDiff(fused, mulRef(a, b)); d > 1e-11 {
		t.Errorf("multi-slice fused diff vs classical %g, want ≤ 1e-11", d)
	}
}
