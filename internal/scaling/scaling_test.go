package scaling_test

import (
	"testing"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/matrix"
	"abmm/internal/scaling"
)

func classicalMul(a, b *matrix.Matrix) *matrix.Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.MulNaive(c, a, b)
	return c
}

func TestScalingPreservesProduct(t *testing.T) {
	a, b := matrix.New(40, 30), matrix.New(30, 50)
	a.FillUniform(matrix.Rand(1), -1, 1)
	b.FillUniform(matrix.Rand(2), -1, 1)
	want := classicalMul(a, b)
	for _, m := range scaling.Methods() {
		cfg := scaling.NewConfig(m)
		got := scaling.Multiply(cfg, a, b, classicalMul)
		if d := matrix.MaxRelDiff(got, want); d > 1e-12 {
			t.Errorf("%v: relative difference %g", m, d)
		}
	}
}

func TestScalingExactPowersBitwiseWithPow2Data(t *testing.T) {
	// When inputs are powers of two and scale factors are rounded to
	// powers of two, scaling introduces no rounding at all.
	a := matrix.FromRows([][]float64{{4, 0.5}, {8, 2}})
	b := matrix.FromRows([][]float64{{0.25, 16}, {2, 1}})
	want := classicalMul(a, b)
	got := scaling.Multiply(scaling.NewConfig(scaling.RepeatedOutsideInside), a, b, classicalMul)
	if !matrix.Equal(got, want) {
		t.Fatal("power-of-two scaling changed bits")
	}
}

func TestScalingHandlesZeroRows(t *testing.T) {
	a := matrix.New(4, 4) // all zero
	b := matrix.New(4, 4)
	b.FillUniform(matrix.Rand(3), 0, 1)
	for _, m := range scaling.Methods() {
		got := scaling.Multiply(scaling.NewConfig(m), a, b, classicalMul)
		if got.MaxNorm() != 0 {
			t.Fatalf("%v: zero input produced nonzero output", m)
		}
	}
}

func TestOutsideScalingImprovesAdversarialError(t *testing.T) {
	// Distribution 3 defeats inside scaling but outside scaling works;
	// distribution 2 defeats outside scaling but inside works. Check
	// the qualitative Figure 4 behaviour with Strassen.
	const n = 128
	mul := func(a, b *matrix.Matrix) *matrix.Matrix {
		return core.Multiply(algos.Strassen(), a, b, core.Options{Levels: 3, Workers: 2})
	}
	relErr := func(dist matrix.Dist, m scaling.Method) float64 {
		a, b := matrix.New(n, n), matrix.New(n, n)
		matrix.FillPair(a, b, dist, matrix.Rand(99))
		ref := dd.ReferenceProduct(a, b, 2)
		got := scaling.Multiply(scaling.NewConfig(m), a, b, mul)
		return matrix.MaxRelDiff(got, ref)
	}
	// Distribution 2: inside must beat no scaling by a wide margin.
	plain := relErr(matrix.DistAdversarialOutside, scaling.None)
	inside := relErr(matrix.DistAdversarialOutside, scaling.Inside)
	if inside >= plain {
		t.Errorf("dist2: inside scaling (%.3g) did not improve over none (%.3g)", inside, plain)
	}
	// Distribution 3: outside must beat no scaling.
	plain3 := relErr(matrix.DistAdversarialInside, scaling.None)
	outside3 := relErr(matrix.DistAdversarialInside, scaling.Outside)
	if outside3 >= plain3 {
		t.Errorf("dist3: outside scaling (%.3g) did not improve over none (%.3g)", outside3, plain3)
	}
	// Repeated O-I must be safe for both.
	roi2 := relErr(matrix.DistAdversarialOutside, scaling.RepeatedOutsideInside)
	roi3 := relErr(matrix.DistAdversarialInside, scaling.RepeatedOutsideInside)
	if roi2 > 10*inside || roi3 > 100*outside3 {
		t.Errorf("repeated O-I not competitive: %.3g vs %.3g, %.3g vs %.3g", roi2, inside, roi3, outside3)
	}
}

func TestAltBasisMatchesStandardUnderScaling(t *testing.T) {
	// Claim V.2 / Figure 4: the alt-basis version tracks the standard
	// version's error behaviour under every scaling method.
	const n = 96
	for _, m := range scaling.Methods() {
		a, b := matrix.New(n, n), matrix.New(n, n)
		matrix.FillPair(a, b, matrix.DistPositive, matrix.Rand(7))
		ref := dd.ReferenceProduct(a, b, 2)
		std := scaling.Multiply(scaling.NewConfig(m), a, b, func(x, y *matrix.Matrix) *matrix.Matrix {
			return core.Multiply(algos.Strassen(), x, y, core.Options{Levels: 3, Workers: 2})
		})
		alt := scaling.Multiply(scaling.NewConfig(m), a, b, func(x, y *matrix.Matrix) *matrix.Matrix {
			return core.Multiply(algos.Ours(), x, y, core.Options{Levels: 3, Workers: 2})
		})
		es := matrix.MaxRelDiff(std, ref)
		ea := matrix.MaxRelDiff(alt, ref)
		if ea > 50*es+1e-12 || es > 50*ea+1e-12 {
			t.Errorf("%v: std err %.3g vs alt err %.3g diverge", m, es, ea)
		}
	}
}

func TestUnknownMethodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	scaling.Multiply(scaling.Config{Method: scaling.Method(42)}, matrix.New(2, 2), matrix.New(2, 2), classicalMul)
}

func TestMethodStrings(t *testing.T) {
	for _, m := range scaling.Methods() {
		if m.String() == "unknown" {
			t.Fatalf("method %d has no label", m)
		}
	}
	if scaling.Method(42).String() != "unknown" {
		t.Fatal("unexpected label for invalid method")
	}
}
