package bilinear

import (
	"fmt"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// ExecMixed runs a non-stationary ("non-uniform") recursion in the
// sense of Castrapel–Gustafson and D'Alberto: a different algorithm at
// each recursion level. specs[0] is applied at the top level, specs[1]
// one level down, and so on; the base case is classical. All specs must
// be standard-basis algorithms with identical base dimensions so the
// block partition stays consistent.
//
// Mixing schedules this way trades stability against additions level by
// level; the paper's Section V notes the technique does not readily
// extend to alternative basis algorithms, which is why this entry point
// accepts only standard-basis specs.
func ExecMixed(specs []*Spec, a, b *matrix.Matrix, opt Options) *matrix.Matrix {
	if len(specs) == 0 {
		panic("bilinear: ExecMixed needs at least one spec")
	}
	first := specs[0]
	for _, s := range specs[1:] {
		if !s.IsStandard() || !first.IsStandard() {
			panic("bilinear: ExecMixed requires standard-basis specs")
		}
		if s.M0 != first.M0 || s.K0 != first.K0 || s.N0 != first.N0 {
			panic(fmt.Sprintf("bilinear: mixed specs disagree on base dims: ⟨%d,%d,%d⟩ vs ⟨%d,%d,%d⟩",
				first.M0, first.K0, first.N0, s.M0, s.K0, s.N0))
		}
	}
	levels := len(specs)
	du := ipow(first.M0*first.K0, levels)
	if a.Rows%du != 0 {
		panic("bilinear: operand rows not divisible for mixed recursion")
	}
	e := newEngine(first, specs, opt, levels)
	dw := ipow(first.M0*first.N0, levels)
	c := matrix.New(dw*(a.Rows/du), b.Cols)
	e.recurse(c, a, b, levels, pool.Global, nil)
	return c
}

// MultiplyMixed is the padding/layout wrapper around ExecMixed: the
// non-stationary analogue of Multiply, recursing len(specs) levels.
func MultiplyMixed(specs []*Spec, a, b *matrix.Matrix, opt Options) *matrix.Matrix {
	if len(specs) == 0 {
		panic("bilinear: MultiplyMixed needs at least one spec")
	}
	s := specs[0]
	if a.Cols != b.Rows {
		panic(matrix.ErrShape)
	}
	levels := len(specs)
	w := opt.workers()
	pm, pk, pn := matrix.PadShape(a.Rows, a.Cols, b.Cols, s.M0, s.K0, s.N0, levels)
	as := ToRecursive(a.PadTo(pm, pk), s.M0, s.K0, levels, w)
	bs := ToRecursive(b.PadTo(pk, pn), s.K0, s.N0, levels, w)
	cs := ExecMixed(specs, as, bs, opt)
	cp := matrix.New(pm, pn)
	FromRecursive(cs, cp, s.M0, s.N0, levels, w)
	return cp.CropTo(a.Rows, b.Cols)
}
