package main

import (
	"math"
	"testing"

	"abmm"
)

// product returns a seeded n×n pair, ours' product at one recursion
// level, and that plan's error bound.
func product(t *testing.T, n int) (a, b, got *abmm.Matrix, bound float64) {
	t.Helper()
	a, b = abmm.NewMatrix(n, n), abmm.NewMatrix(n, n)
	rng := abmm.Rand(11)
	a.FillUniform(rng, -1, 1)
	b.FillUniform(rng, -1, 1)
	alg, err := abmm.Lookup("ours")
	if err != nil {
		t.Fatal(err)
	}
	mu := abmm.NewMultiplier(alg, abmm.Options{Levels: 1, Workers: 1})
	got = abmm.NewMatrix(n, n)
	mu.MultiplyInto(got, a, b)
	return a, b, got, mu.Plan(n, n, n).ErrorBound()
}

func TestCheckPassesCorrectOutput(t *testing.T) {
	a, b, got, bound := product(t, 48)
	v := newOracle(a, b, true, 1).check(got)
	if !v.passes(bound) || v.Mismatch != 0 || v.RelErr <= 0 {
		t.Fatalf("correct product: %+v against bound %g", v, bound)
	}
}

func TestCheckCatchesPerturbedOutput(t *testing.T) {
	a, b, got, bound := product(t, 48)
	o := newOracle(a, b, true, 1)
	got.Set(17, 5, got.At(17, 5)+1e-9*o.norm)
	v := o.check(got)
	if v.passes(bound) {
		t.Fatalf("perturbed product passed: %+v against bound %g", v, bound)
	}
	if v.Mismatch != 0 {
		t.Fatalf("a finite perturbation counted as a non-finite mismatch: %+v", v)
	}
}

func TestCheckCatchesInjectedNaN(t *testing.T) {
	a, b, got, bound := product(t, 48)
	o := newOracle(a, b, true, 1)
	got.Set(3, 40, math.NaN())
	got.Set(30, 2, math.Inf(-1))
	v := o.check(got)
	if v.passes(bound) || v.Mismatch != 2 {
		t.Fatalf("NaN and -Inf in the output: %+v, want 2 mismatches and a failure", v)
	}
}

func TestKindOnlyCheckComparesFiniteness(t *testing.T) {
	a, b, got, _ := product(t, 32)
	// Where the classical product itself overflows, a non-finite output
	// entry is a match, and a finite one a mismatch.
	a.Set(4, 0, math.MaxFloat64)
	a.Set(4, 1, math.MaxFloat64)
	for j := 0; j < b.Cols; j++ {
		b.Set(0, j, 1)
		b.Set(1, j, 1)
	}
	o := newOracle(a, b, false, 1)
	if len(o.nonfinite) != b.Cols {
		t.Fatalf("classical row 4 should overflow in every column, got %d non-finite entries", len(o.nonfinite))
	}
	for j := 0; j < got.Cols; j++ {
		got.Set(4, j, math.Inf(1))
	}
	if v := o.check(got); v.Mismatch != 0 || v.RelErr != 0 {
		t.Fatalf("matching non-finite rows: %+v", v)
	}
	got.Set(4, 7, 1)
	got.Set(9, 9, math.NaN())
	if v := o.check(got); v.Mismatch != 2 {
		t.Fatalf("two finiteness differences: %+v", v)
	}
}
