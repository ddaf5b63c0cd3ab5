package core_test

import (
	"math"
	"testing"
	"testing/quick"

	"abmm/internal/algos"
	"abmm/internal/core"
	"abmm/internal/dd"
	"abmm/internal/matrix"
)

// TestMixedPlanOfOneEqualsUniform: a mixed plan of one algorithm is the
// uniform L=1 plan, bit for bit, on even and padded shapes.
func TestMixedPlanOfOneEqualsUniform(t *testing.T) {
	alg := algos.Strassen()
	for _, d := range [][3]int{{32, 32, 32}, {33, 65, 17}} {
		a, b := matrix.New(d[0], d[1]), matrix.New(d[1], d[2])
		a.FillUniform(matrix.Rand(3), -1, 1)
		b.FillUniform(matrix.Rand(4), -1, 1)
		for _, w := range []int{1, 2} {
			opt := core.Options{Levels: 1, Workers: w}
			mp, err := core.NewMixedPlan([]*algos.Algorithm{alg}, opt, d[0], d[1], d[2])
			if err != nil {
				t.Fatal(err)
			}
			up := core.NewPlan(alg, opt, d[0], d[1], d[2])
			if !matrix.Equal(mp.Multiply(a, b), up.Multiply(a, b)) {
				t.Errorf("%v w=%d: one-level mixed plan differs from the uniform L=1 plan", d, w)
			}
			if math.Float64bits(mp.ErrorBound()) != math.Float64bits(up.ErrorBound()) || mp.Desc() != up.Desc() {
				t.Errorf("%v w=%d: mixed plan bound %g %q, uniform %g %q",
					d, w, mp.ErrorBound(), mp.Desc(), up.ErrorBound(), up.Desc())
			}
		}
	}
}

// TestNewMixedPlanRejects: an empty list, an alternative basis algorithm
// and disagreeing base dims are errors, not panics.
func TestNewMixedPlanRejects(t *testing.T) {
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		algs []*algos.Algorithm
	}{
		{"empty", nil},
		{"alt-basis", []*algos.Algorithm{algos.Strassen(), algos.Ours()}},
		{"decomposed", []*algos.Algorithm{algos.Strassen(), fd}},
		{"base dims", []*algos.Algorithm{algos.Strassen(), algos.Classical(3, 3, 3)}},
	} {
		if p, err := core.NewMixedPlan(tc.algs, core.Options{}, 36, 36, 36); err == nil {
			t.Errorf("%s: compiled %s, want an error", tc.name, p.Desc())
		}
	}
}

// TestMixedPlanErrorWithinBound: the measured error of random mixed
// plans (per-level lists of ⟨2,2,2⟩ or ⟨3,3,3⟩ algorithms, 1–3 levels,
// odd shapes, 1 or 2 workers) stays within the plan's per-level
// Theorem III.8 bound.
func TestMixedPlanErrorWithinBound(t *testing.T) {
	families := [][]*algos.Algorithm{
		{algos.Strassen(), algos.Winograd(), algos.Classical(2, 2, 2)},
		{algos.Laderman(), algos.Classical(3, 3, 3)},
	}
	f := func(seed uint64) bool {
		fam := families[seed%2]
		algs := make([]*algos.Algorithm, seed/2%3+1)
		for i := range algs {
			algs[i] = fam[int(seed>>(8+2*i))%len(fam)]
		}
		m, k, n := int(seed/7%60)+1, int(seed/420%60)+1, int(seed/25200%60)+1
		a, b := matrix.New(m, k), matrix.New(k, n)
		matrix.FillPair(a, b, matrix.DistSymmetric, matrix.Rand(seed))
		p, err := core.NewMixedPlan(algs, core.Options{Workers: int(seed/11%2) + 1}, m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		measured := matrix.MaxAbsDiff(p.Multiply(a, b), dd.ReferenceProduct(a, b, 1))
		if bound := p.ErrorBound() * a.MaxNorm() * b.MaxNorm(); measured > bound {
			t.Logf("%s %dx%dx%d: error %g exceeds bound %g", p.Desc(), m, k, n, measured, bound)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
