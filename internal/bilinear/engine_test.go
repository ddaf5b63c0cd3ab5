package bilinear_test

import (
	"testing"
	"testing/quick"

	"abmm/internal/algos"
	"abmm/internal/bilinear"
	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// specsOf returns the engine's per-level spec list for algs.
func specsOf(algs ...*algos.Algorithm) []*bilinear.Spec {
	out := make([]*bilinear.Spec, len(algs))
	for i, a := range algs {
		out[i] = a.Spec
	}
	return out
}

// execStacked multiplies a·b with an engine for the per-level specs
// (standard-basis, all on the base dims of specs[0]): it converts the
// operands to stacked layout, runs the engine and converts the product
// back. The dimensions must divide by the base powers; padding is
// core.Plan's job.
func execStacked(specs []*bilinear.Spec, a, b *matrix.Matrix, opt bilinear.Options) *matrix.Matrix {
	m0, k0, n0, l := 1, 1, 1, len(specs)
	if l > 0 {
		m0, k0, n0 = specs[0].M0, specs[0].K0, specs[0].N0
	}
	as := bilinear.ToRecursive(a, m0, k0, l, 1)
	bs := bilinear.ToRecursive(b, k0, n0, l, 1)
	nl := 1
	for i := 0; i < l; i++ {
		nl *= n0
	}
	cs := matrix.New(a.Rows*nl, b.Cols/nl)
	bilinear.NewEngine(specs, opt).ExecInto(cs, as, bs, pool.Global, nil)
	c := matrix.New(a.Rows, b.Cols)
	bilinear.FromRecursive(cs, c, m0, n0, l, 1)
	return c
}

// engineDiff runs execStacked on random m×k and k×n operands and
// returns its largest difference from matrix.MulNaive.
func engineDiff(specs []*bilinear.Spec, m, k, n int, opt bilinear.Options) float64 {
	a := matrix.New(m, k)
	b := matrix.New(k, n)
	a.FillUniform(matrix.Rand(uint64(m*k+len(specs))), -1, 1)
	b.FillUniform(matrix.Rand(uint64(k*n+len(specs)+1)), -1, 1)
	want := matrix.New(m, n)
	matrix.MulNaive(want, a, b)
	return matrix.MaxAbsDiff(execStacked(specs, a, b, opt), want)
}

func TestMultiplyStrassenMatchesClassical(t *testing.T) {
	alg := algos.Strassen()
	for _, levels := range []int{0, 1, 2, 3} {
		for _, opt := range []bilinear.Options{
			{Workers: 1},
			{Workers: 4},
		} {
			if d := engineDiff(specsOf(algos.Repeat(alg, levels)...), 64, 64, 64, opt); d > 1e-11 {
				t.Errorf("levels=%d opt=%+v: diff %g", levels, opt, d)
			}
		}
	}
}

func TestMultiplyWinogradAndClassical222(t *testing.T) {
	for _, alg := range []*algos.Algorithm{algos.Winograd(), algos.Classical(2, 2, 2)} {
		if d := engineDiff(specsOf(alg, alg), 96, 96, 96, bilinear.Options{Workers: 3}); d > 1e-11 {
			t.Errorf("%s: diff %g", alg.Name, d)
		}
	}
}

func TestMultiplyRectangularBase(t *testing.T) {
	// ⟨3,2,4⟩ classical exercises rectangular partitioning.
	alg := algos.Classical(3, 2, 4)
	if d := engineDiff(specsOf(alg, alg), 36, 16, 64, bilinear.Options{Workers: 2}); d > 1e-11 {
		t.Errorf("rectangular base diff %g", d)
	}
}

func TestMultiplyKroneckerComposed(t *testing.T) {
	k, err := algos.Kronecker(algos.Strassen(), algos.Classical(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	// ⟨4,4,2;28⟩ base case: multiply a 32x32 by 32x16.
	if d := engineDiff(specsOf(k), 32, 32, 16, bilinear.Options{Workers: 2}); d > 1e-11 {
		t.Errorf("composed algorithm diff %g", d)
	}
}

// TestMultiplyMixedMatchesClassical runs a non-stationary recursion: a
// different algorithm at each level.
func TestMultiplyMixedMatchesClassical(t *testing.T) {
	specs := specsOf(algos.Strassen(), algos.Winograd(), algos.Classical(2, 2, 2))
	for _, opt := range []bilinear.Options{
		{Workers: 1},
		{Workers: 2},
	} {
		if d := engineDiff(specs, 72, 72, 72, opt); d > 1e-11 {
			t.Errorf("opt %+v: diff %g", opt, d)
		}
	}
}

// TestMultiplyPropertyRandomSizes runs strassen at levels 0–2 on random
// base-block shapes.
func TestMultiplyPropertyRandomSizes(t *testing.T) {
	alg := algos.Strassen()
	f := func(seed uint64) bool {
		levels := int(seed % 3)
		p := 1 << levels
		m := p * (int(seed/3%12) + 1)
		k := p * (int(seed/36%12) + 1)
		n := p * (int(seed/432%12) + 1)
		return engineDiff(specsOf(algos.Repeat(alg, levels)...), m, k, n, bilinear.Options{Workers: 2}) < 1e-11
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestExecRejectsBadShapes(t *testing.T) {
	alg := algos.Strassen()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-conforming stacked operands")
		}
	}()
	bilinear.Exec(alg.Spec, matrix.New(16, 5), matrix.New(16, 7), 2, bilinear.Options{})
}

func TestExecRejectsNegativeLevels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative levels")
		}
	}()
	bilinear.Exec(algos.Strassen().Spec, matrix.New(4, 4), matrix.New(4, 4), -1, bilinear.Options{})
}

func TestLayoutRoundTrip(t *testing.T) {
	for _, l := range []int{0, 1, 2, 3} {
		m := matrix.New(24, 24)
		m.FillUniform(matrix.Rand(uint64(l)), -1, 1)
		if l > 0 && (24%(2<<uint(l-1)) != 0) {
			continue
		}
		pm, pk, _ := matrix.PadShape(24, 24, 24, 2, 2, 2, l)
		p := m.PadTo(pm, pk)
		s := bilinear.ToRecursive(p, 2, 2, l, 2)
		back := matrix.New(p.Rows, p.Cols)
		bilinear.FromRecursive(s, back, 2, 2, l, 2)
		if !matrix.Equal(back, p) {
			t.Fatalf("layout round trip failed at l=%d", l)
		}
	}
}

func TestLayoutRectangular(t *testing.T) {
	m := matrix.New(18, 32)
	m.FillUniform(matrix.Rand(3), -1, 1)
	// 3×2 base, two levels: 36 base blocks of 2×8 stacked vertically.
	s := bilinear.ToRecursive(m, 3, 2, 2, 2)
	if s.Rows != 72 || s.Cols != 8 {
		t.Fatalf("stacked shape %dx%d, want 72x8", s.Rows, s.Cols)
	}
	back := matrix.New(18, 32)
	bilinear.FromRecursive(s, back, 3, 2, 2, 2)
	if !matrix.Equal(back, m) {
		t.Fatal("rectangular layout round trip failed")
	}
	// Spot-check block placement: base block (0,0) is m[0:2,0:8].
	if matrix.MaxAbsDiff(s.View(0, 0, 2, 8), m.View(0, 0, 2, 8)) != 0 {
		t.Fatal("first base block misplaced")
	}
}
