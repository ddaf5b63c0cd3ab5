package core_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/exact"
	"abmm/internal/matrix"
)

func refMul(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.Mul(c, a, b, 2)
	return c
}

func checkAlg(t *testing.T, alg *algos.Algorithm, m, k, n int, opt core.Options, tol float64) {
	t.Helper()
	a, b := matrix.New(m, k), matrix.New(k, n)
	a.FillUniform(matrix.Rand(uint64(m+k)), -1, 1)
	b.FillUniform(matrix.Rand(uint64(k+n+1)), -1, 1)
	got := core.Multiply(alg, a, b, opt)
	if d := matrix.MaxAbsDiff(got, refMul(a, b)); d > tol {
		t.Errorf("%s %dx%dx%d opts %+v: diff %g", alg.Name, m, k, n, opt, d)
	}
}

func TestStandardAlgorithmsThroughPipeline(t *testing.T) {
	for _, alg := range []*algos.Algorithm{algos.Strassen(), algos.Winograd(), algos.Classical(2, 2, 2)} {
		for _, l := range []int{0, 1, 3} {
			checkAlg(t, alg, 64, 64, 64, core.Options{Levels: l, Workers: 3}, 1e-11)
		}
	}
}

func TestAltBasisThroughPipeline(t *testing.T) {
	phi := exact.FromRows([][]int64{{1, 0, 0, 0}, {1, 1, 0, 0}, {0, 1, 1, 0}, {0, 0, 0, 1}})
	psi := exact.FromRows([][]int64{{1, 0, 0, -1}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}})
	nu := exact.FromRows([][]int64{{1, 0, 0, 0}, {0, 1, 1, 0}, {0, 0, 1, 0}, {0, -1, 0, 1}})
	alt, err := algos.AltBasis("strassen-alt", algos.Strassen(), phi, psi, nu)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{0, 1, 2, 3} {
		checkAlg(t, alt, 48, 48, 48, core.Options{Levels: l, Workers: 2}, 1e-10)
	}
}

func TestFullDecompositionThroughPipeline(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []int{1, 2} {
		checkAlg(t, fd, 40, 40, 40, core.Options{Levels: l, Workers: 2}, 1e-10)
	}
}

func TestRectangularThroughPipeline(t *testing.T) {
	alg := algos.Classical(3, 2, 4)
	checkAlg(t, alg, 50, 30, 70, core.Options{Levels: 2, Workers: 2}, 1e-11)
}

func TestAutoLevels(t *testing.T) {
	mu := core.New(algos.Strassen(), core.Options{Levels: core.AutoLevels, MinBase: 16})
	if l := mu.Levels(256, 256, 256); l != 4 {
		t.Fatalf("auto levels = %d, want 4 (256→16 in 4 halvings)", l)
	}
	if l := mu.Levels(16, 16, 16); l != 0 {
		t.Fatalf("auto levels at MinBase = %d, want 0", l)
	}
	checkAlg(t, algos.Strassen(), 130, 70, 90, core.Options{Levels: core.AutoLevels, MinBase: 16}, 1e-11)
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	core.Multiply(algos.Strassen(), matrix.New(4, 5), matrix.New(4, 5), core.Options{})
}

func TestPipelineAgainstDDReference(t *testing.T) {
	// End-to-end integration: fast algorithm vs the quad-precision
	// reference on a larger run. The error must stay within the
	// theoretical bound scale f(n)·‖A‖‖B‖·eps.
	a, b := matrix.New(128, 128), matrix.New(128, 128)
	matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(7))
	got := core.Multiply(algos.Strassen(), a, b, core.Options{Levels: 3, Workers: 4})
	ref := dd.ReferenceProduct(a, b, 4)
	if d := matrix.MaxAbsDiff(got, ref); d > 1e-10 || d == 0 {
		t.Fatalf("error vs quad reference = %g (want small but nonzero)", d)
	}
}

func TestDeterministicAcrossSchedules(t *testing.T) {
	// One worker runs serially; two fan each level-2 node's products out
	// as tasks over serial kernels; eight exceed winograd's R=7, so they
	// run without fan-out over kernels that get all eight. All must
	// produce bitwise-identical results: parallelism never reorders any
	// accumulation in this design.
	a, b := matrix.New(64, 64), matrix.New(64, 64)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	for _, levels := range []int{2, 3} {
		want := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: levels, Workers: 1})
		for _, w := range []int{2, 8} {
			got := core.Multiply(algos.Winograd(), a, b, core.Options{Levels: levels, Workers: w})
			if !matrix.Equal(want, got) {
				t.Errorf("levels=%d: workers=%d changed the bitwise result", levels, w)
			}
		}
	}
}
