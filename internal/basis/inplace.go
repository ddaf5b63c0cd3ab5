package basis

import (
	"math/big"

	"abmm/internal/exact"
	"abmm/internal/matrix"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// In-place application. A square transformation v ← φᵀv can be executed
// as a sequence of elementary operations on the block groups —
// group_i += c·group_j, swaps, and scalings — requiring no scratch
// proportional to the operand. This is how the paper's implementation
// keeps the alternative basis memory footprint at (2⅔+o(1))n²
// (Appendix A: "our basis transformations are computed in place").
//
// The sequence is obtained by Gauss–Jordan factorization of φᵀ into
// elementary matrices; it exists for any invertible φ, and is used only
// when every factor's coefficient is exactly representable in float64
// (always the case for the catalog's unimodular bases).

type elemKind uint8

const (
	elemAdd   elemKind = iota // group[i] += c · group[j]
	elemSwap                  // group[i] ↔ group[j]
	elemScale                 // group[i] *= c
)

type elemOp struct {
	kind elemKind
	i, j int
	c    float64
}

// inPlaceProgram lazily compiles and caches the elementary sequence.
func (t *Transform) inPlaceProgram() ([]elemOp, bool) {
	t.ipOnce.Do(func() {
		t.ipOps, t.ipOK = factorElementary(t.M)
	})
	return t.ipOps, t.ipOK
}

// CanApplyInPlace reports whether the transform admits an in-place
// execution (square, invertible, dyadic elementary factors).
func (t *Transform) CanApplyInPlace() bool {
	if t.D1 != t.D2 {
		return false
	}
	_, ok := t.inPlaceProgram()
	return ok
}

// ApplyInPlace computes the recursive transform φ^level directly in the
// operand's storage and reports whether it did; when it returns false
// the operand is untouched and the caller must use Apply or ApplyInto.
// The operand layout is the same stacked form Apply expects. The
// recursion's view headers are drawn from al, so warm-arena executions
// allocate nothing. cn is a cooperative cancellation token (nil for
// none) polled at recursion-node boundaries; once it is set the
// remaining subtree is abandoned and the operand is left partially
// transformed.
//
//abmm:hotpath
func (t *Transform) ApplyInPlace(v *matrix.Matrix, level, workers int, al pool.Allocator, cn *parallel.Cancel) bool {
	if t.D1 != t.D2 {
		return false
	}
	ops, ok := t.inPlaceProgram()
	if !ok {
		return false
	}
	if v.Rows%ipow(t.D1, level) != 0 {
		panic("basis: operand rows not divisible for in-place transform")
	}
	t.applyInPlace(ops, v, level, workers, al, cn)
	return true
}

func (t *Transform) applyInPlace(ops []elemOp, v *matrix.Matrix, level, workers int, al pool.Allocator, cn *parallel.Cancel) {
	if cn.Canceled() || level == 0 {
		return
	}
	d := t.D1
	gh := v.Rows / d
	groups := al.Mats(d)
	for i := range groups {
		g := al.Hdr()
		v.ViewInto(g, i*gh, 0, gh, v.Cols)
		groups[i] = g
	}
	if workers == 1 {
		for i := 0; i < d; i++ {
			t.applyInPlace(ops, groups[i], level-1, 1, al, cn)
		}
	} else {
		parallel.For(d, workers, 1, func(i int) {
			t.applyInPlace(ops, groups[i], level-1, 1, al, cn)
		})
	}
	for _, op := range ops {
		switch op.kind {
		case elemAdd:
			matrix.AddScaled(groups[op.i], groups[op.j], op.c, workers)
		case elemSwap:
			swapGroups(groups[op.i], groups[op.j], workers)
		case elemScale:
			matrix.Scale(groups[op.i], groups[op.i], op.c, workers)
		}
	}
	for _, g := range groups {
		al.PutHdr(g)
	}
	al.PutMats(groups)
}

func swapGroups(a, b *matrix.Matrix, workers int) {
	if a.Rows <= 16 || workers == 1 {
		swapRows(a, b, 0, a.Rows)
		return
	}
	parallel.ForChunks(a.Rows, workers, 16, func(lo, hi int) {
		swapRows(a, b, lo, hi)
	})
}

func swapRows(a, b *matrix.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			ra[j], rb[j] = rb[j], ra[j]
		}
	}
}

// factorElementary factors mᵀ into elementary matrices and returns the
// operation sequence whose in-order application computes v ← mᵀ·v.
// Gauss–Jordan reduces A = mᵀ to the identity recording the applied
// operations F₁..F_k (F_k···F₁·A = I), so A = F₁⁻¹···F_k⁻¹ and the
// program applies F_k⁻¹ first. ok is false if m is singular,
// rectangular, or a factor's coefficient is not exactly representable.
func factorElementary(m *exact.Matrix) ([]elemOp, bool) {
	if m.Rows != m.Cols {
		return nil, false
	}
	n := m.Rows
	a := m.Transpose()
	// inverse ops accumulated in application order (reversed at end).
	var inv []elemOp
	exactF := func(r *big.Rat) (float64, bool) { return r.Float64() }
	one := big.NewRat(1, 1)
	var tmp big.Rat
	for col := 0; col < n; col++ {
		// Pivot.
		p := -1
		for r := col; r < n; r++ {
			if a.At(r, col).Sign() != 0 {
				p = r
				break
			}
		}
		if p < 0 {
			return nil, false
		}
		if p != col {
			swapRowsExact(a, p, col)
			// F = swap(p,col); F⁻¹ = itself.
			inv = append(inv, elemOp{kind: elemSwap, i: p, j: col})
		}
		if a.At(col, col).Cmp(one) != 0 {
			// F = scale(col, 1/pivot); F⁻¹ = scale(col, pivot).
			pv, ok := exactF(a.At(col, col))
			if !ok || pv == 0 {
				return nil, false
			}
			tmp.Inv(a.At(col, col))
			scaleRowExact(a, col, &tmp)
			inv = append(inv, elemOp{kind: elemScale, i: col, c: pv})
		}
		for r := 0; r < n; r++ {
			if r == col || a.At(r, col).Sign() == 0 {
				continue
			}
			// F = row_r -= f·row_col; F⁻¹ = row_r += f·row_col.
			f, ok := exactF(a.At(r, col))
			if !ok {
				return nil, false
			}
			tmp.Neg(a.At(r, col))
			addRowExact(a, r, col, &tmp)
			inv = append(inv, elemOp{kind: elemAdd, i: r, j: col, c: f})
		}
	}
	// Program order: F_k⁻¹ first.
	for l, r := 0, len(inv)-1; l < r; l, r = l+1, r-1 {
		inv[l], inv[r] = inv[r], inv[l]
	}
	return inv, true
}

func swapRowsExact(m *exact.Matrix, i, j int) {
	for c := 0; c < m.Cols; c++ {
		vi := new(big.Rat).Set(m.At(i, c))
		m.Set(i, c, m.At(j, c))
		m.Set(j, c, vi)
	}
}

func scaleRowExact(m *exact.Matrix, i int, f *big.Rat) {
	var t big.Rat
	for c := 0; c < m.Cols; c++ {
		t.Mul(m.At(i, c), f)
		m.Set(i, c, &t)
	}
}

func addRowExact(m *exact.Matrix, dst, src int, f *big.Rat) {
	var t big.Rat
	for c := 0; c < m.Cols; c++ {
		t.Mul(m.At(src, c), f)
		t.Add(m.At(dst, c), &t)
		m.Set(dst, c, &t)
	}
}
