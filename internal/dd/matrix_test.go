package dd

import (
	"math"
	"testing"

	"abmm/internal/matrix"
)

func TestMatMulMatchesNaiveOnSmallInts(t *testing.T) {
	// Small integer matrices multiply exactly in both float64 and dd.
	a := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	b := matrix.FromRows([][]float64{{5, 6}, {7, 8}})
	want := matrix.New(2, 2)
	matrix.MulNaive(want, a, b)
	got := ReferenceProduct(a, b, 2)
	if matrix.MaxAbsDiff(got, want) != 0 {
		t.Fatal("dd product differs on exact integer input")
	}
}

func TestReferenceProductMoreAccurateThanFloat64(t *testing.T) {
	// Construct a dot product with catastrophic float64 cancellation:
	// [1e16, 1, -1e16] · [1, 1, 1] = 1.
	a := matrix.FromRows([][]float64{{1e16, 1, -1e16}})
	b := matrix.FromRows([][]float64{{1}, {1}, {1}})
	got := ReferenceProduct(a, b, 1)
	if got.At(0, 0) != 1 {
		t.Fatalf("dd reference = %g, want exactly 1", got.At(0, 0))
	}
}

func TestReferenceProductRandomAgreesToTolerance(t *testing.T) {
	a := matrix.New(33, 29)
	b := matrix.New(29, 31)
	a.FillUniform(matrix.Rand(5), -1, 1)
	b.FillUniform(matrix.Rand(6), -1, 1)
	f64 := matrix.New(33, 31)
	matrix.MulNaive(f64, a, b)
	ref := ReferenceProduct(a, b, 2)
	// float64 classical error bound is ~k*eps*|A||B| = 29*2^-52*29 ≈ 2e-13.
	if d := matrix.MaxAbsDiff(f64, ref); d > 1e-12 || math.IsNaN(d) {
		t.Fatalf("float64 vs dd reference differ by %g", d)
	}
}

func TestFromMatrixRoundTrip(t *testing.T) {
	m := matrix.New(7, 5)
	m.FillUniform(matrix.Rand(9), -10, 10)
	if matrix.MaxAbsDiff(FromMatrix(m).Round(), m) != 0 {
		t.Fatal("FromMatrix/Round not exact")
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMul(matrix.New(2, 3), matrix.New(2, 3), 1)
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, FromFloat(4.5))
	if m.At(1, 2).Float() != 4.5 {
		t.Fatal("At/Set mismatch")
	}
}
