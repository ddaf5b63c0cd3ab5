package core_test

import (
	"testing"
	"testing/quick"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/matrix"
	"abmm/internal/stability"
)

// TestAllCatalogAlgorithmsAgreeProperty multiplies random problems with
// every catalog algorithm at levels 0–3 and 1, 2 or 4 workers (with and
// without task fan-out), asserting agreement with the classical kernel
// within the theoretical bound scale.
func TestAllCatalogAlgorithmsAgreeProperty(t *testing.T) {
	catalog := []*algos.Algorithm{
		algos.Strassen(), algos.Winograd(), algos.AltWinograd(), algos.Ours(),
		algos.Laderman(), algos.LadermanAlt(), algos.HopcroftKerr223(), algos.Rect323(),
	}
	f := func(seed uint64) bool {
		alg := catalog[int(seed%uint64(len(catalog)))]
		m := int(seed/8%40) + 1
		k := int(seed/320%40) + 1
		n := int(seed/12800%40) + 1
		levels := int(seed / 3 % 4)
		a, b := matrix.New(m, k), matrix.New(k, n)
		a.FillUniform(matrix.Rand(seed), -1, 1)
		b.FillUniform(matrix.Rand(seed+1), -1, 1)
		opt := core.Options{Levels: levels, Workers: []int{1, 2, 4}[seed%3]}
		got := core.Multiply(alg, a, b, opt)
		want := matrix.New(m, n)
		matrix.Mul(want, a, b, 2)
		return matrix.MaxAbsDiff(got, want) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOrbitMembersExecuteCorrectly runs randomly orbit-generated
// ⟨3,3,3⟩ algorithms through the full pipeline.
func TestOrbitMembersExecuteCorrectly(t *testing.T) {
	for _, member := range algos.OrbitFamily(algos.Laderman(), 4, 11) {
		a, b := matrix.New(27, 27), matrix.New(27, 27)
		a.FillUniform(matrix.Rand(1), -1, 1)
		b.FillUniform(matrix.Rand(2), -1, 1)
		got := core.Multiply(member, a, b, core.Options{Levels: 2, Workers: 2})
		want := matrix.New(27, 27)
		matrix.Mul(want, a, b, 2)
		// Orbit members can have large stability factors; scale the
		// tolerance by E².
		e := stability.FactorFloat(member)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-12*e*e {
			t.Errorf("%s (E=%g): diff %g", member.Name, e, d)
		}
	}
}

// TestMeasuredErrorRespectsTheoreticalBound: the measured forward error
// must stay below f(n)·‖A‖‖B‖·ε for every catalog algorithm
// (Theorem I.1; the bound is loose, so this holds with wide margin).
func TestMeasuredErrorRespectsTheoreticalBound(t *testing.T) {
	const n, levels = 256, 3
	a, b := matrix.New(n, n), matrix.New(n, n)
	matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(5))
	want := matrix.New(n, n)
	matrix.Mul(want, a, b, 2)
	for _, alg := range []*algos.Algorithm{algos.Strassen(), algos.Winograd(), algos.Ours(), algos.AltWinograd()} {
		got := core.Multiply(alg, a, b, core.Options{Levels: levels, Workers: 2})
		bound := stability.ErrorBound(alg, n) * a.MaxNorm() * b.MaxNorm() * 0x1p-53
		if d := matrix.MaxAbsDiff(got, want); d > bound {
			t.Errorf("%s: error %g exceeds theoretical bound %g", alg.Name, d, bound)
		}
	}
}

// TestHigherDimPipelineAgreement: decomposed variants with growing
// dimensions produce the same products.
func TestHigherDimPipelineAgreement(t *testing.T) {
	for _, dims := range []int{1, 2, 0} {
		hd, err := algos.HigherDim(algos.Winograd(), dims)
		if err != nil {
			t.Fatal(err)
		}
		a, b := matrix.New(40, 40), matrix.New(40, 40)
		a.FillUniform(matrix.Rand(uint64(dims)), -1, 1)
		b.FillUniform(matrix.Rand(uint64(dims)+1), -1, 1)
		got := core.Multiply(hd, a, b, core.Options{Levels: 2, Workers: 2})
		want := matrix.New(40, 40)
		matrix.Mul(want, a, b, 2)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-11 {
			t.Errorf("maxDims=%d: diff %g", dims, d)
		}
	}
}

// TestErrorGrowsWithLevels validates the L-dependence of Theorem III.8:
// each extra recursion level multiplies the error bound by roughly E,
// so measured errors must trend upward with L and stay below the bound.
func TestErrorGrowsWithLevels(t *testing.T) {
	const n = 256
	a, b := matrix.New(n, n), matrix.New(n, n)
	matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(21))
	ref := dd.ReferenceProduct(a, b, 2)
	alg := algos.Strassen()
	var errs []float64
	for l := 0; l <= 4; l++ {
		got := core.Multiply(alg, a, b, core.Options{Levels: l, Workers: 2})
		errs = append(errs, matrix.MaxAbsDiff(got, ref))
	}
	t.Logf("errors by level: %.3g", errs)
	if errs[4] <= errs[0] {
		t.Errorf("error did not grow from L=0 (%g) to L=4 (%g)", errs[0], errs[4])
	}
	for l, e := range errs {
		bound := stability.ErrorBoundKL(alg, n, l) * a.MaxNorm() * b.MaxNorm() * 0x1p-53
		if e > bound {
			t.Errorf("L=%d: measured %g exceeds Theorem III.8 bound %g", l, e, bound)
		}
	}
}
