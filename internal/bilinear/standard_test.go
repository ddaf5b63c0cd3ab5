package bilinear_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/matrix"
)

// The engine takes stacked operands whose dimensions divide by the base
// powers and trusts its per-level spec list. These tests pin the
// standard-basis entry points built on it: core.NewPlan pads odd shapes
// around the engine, and core.NewMixedPlan checks a per-level list
// before any engine is built.

// TestMultiplyOddSizesViaPadding runs strassen at L=2 on shapes no
// power of two divides.
func TestMultiplyOddSizesViaPadding(t *testing.T) {
	alg := algos.Strassen()
	for _, dims := range [][3]int{{5, 7, 3}, {33, 65, 17}, {100, 100, 100}, {1, 9, 1}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := matrix.New(m, k), matrix.New(k, n)
		a.FillUniform(matrix.Rand(uint64(m*k)), -1, 1)
		b.FillUniform(matrix.Rand(uint64(k*n+1)), -1, 1)
		want := matrix.New(m, n)
		matrix.MulNaive(want, a, b)
		got := core.NewPlan(alg, core.Options{Levels: 2, Workers: 2}, m, k, n).Multiply(a, b)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-11 {
			t.Errorf("%v: diff %g", dims, d)
		}
	}
}

// mixedPlanErr compiles a mixed plan for a 36×36 product and returns
// its error.
func mixedPlanErr(algs ...*algos.Algorithm) error {
	_, err := core.NewMixedPlan(algs, core.Options{}, 36, 36, 36)
	return err
}

// TestMultiplyRejectsDecomposedSpec: a lone decomposed (alternative
// basis) algorithm is not a standard-basis list.
func TestMultiplyRejectsDecomposedSpec(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if mixedPlanErr(fd) == nil {
		t.Fatal("compiled a standard-basis plan from a decomposed algorithm")
	}
}

func TestMultiplyMixedRejectsMismatchedDims(t *testing.T) {
	if mixedPlanErr(algos.Strassen(), algos.Classical(3, 3, 3)) == nil {
		t.Fatal("compiled a mixed plan from ⟨2,2,2⟩ and ⟨3,3,3⟩ levels")
	}
}

func TestMultiplyMixedRejectsDecomposed(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if mixedPlanErr(algos.Strassen(), fd) == nil {
		t.Fatal("compiled a mixed plan with a decomposed level")
	}
}

// TestMultiplyMixedEmptyPanics: an empty list fails before any engine
// is built; it is an error now rather than a panic.
func TestMultiplyMixedEmptyPanics(t *testing.T) {
	if mixedPlanErr() == nil {
		t.Fatal("compiled a mixed plan from an empty list")
	}
}
