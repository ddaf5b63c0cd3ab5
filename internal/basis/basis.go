// Package basis implements recursive linear transformations
// (Definition II.1 of the paper): a D₁×D₂ matrix φ applied recursively
// to a vector of D₁^L blocks, producing D₂^L blocks via
//
//	φ^L(v)_j = Σ_i φ_ij · φ^{L-1}(v^i).
//
// Operands use the same stacked block-recursive layout as the bilinear
// engine, so each recursion level addresses its sub-vectors as
// contiguous row ranges and every combination streams contiguous
// memory. Transformations with D₂ > D₁ (the higher-dimension and fully
// decomposed algorithms of Beniamini–Schwartz) grow the operand.
package basis

import (
	"fmt"
	"sync"

	"abmm/internal/exact"
	"abmm/internal/matrix"
	"abmm/internal/parallel"
	"abmm/internal/pool"
)

// Transform is a recursive linear transformation defined by a D₁×D₂
// matrix. Entries must be exactly representable in float64 (all bases
// in this library are small integers or dyadic rationals).
type Transform struct {
	Name   string
	D1, D2 int
	M      *exact.Matrix // D₁×D₂
	// cols[j] holds column j of M as float64: the coefficients of
	// output group j over the input groups.
	cols [][]float64

	// In-place elementary program, compiled lazily (see inplace.go).
	ipOnce sync.Once
	ipOps  []elemOp
	ipOK   bool

	// Cached transpose, derived lazily. Sharing it lets every plan and
	// call site reuse one Transform (and its compiled in-place program)
	// instead of re-deriving νᵀ per multiplication.
	trOnce sync.Once
	tr     *Transform
}

// New builds a Transform from its exact matrix representation.
func New(name string, m *exact.Matrix) *Transform {
	t := &Transform{Name: name, D1: m.Rows, D2: m.Cols, M: m}
	f := m.Float64s()
	t.cols = make([][]float64, m.Cols)
	for j := range t.cols {
		col := make([]float64, m.Rows)
		for i := range col {
			col[i] = f[i*m.Cols+j]
		}
		t.cols[j] = col
	}
	return t
}

// Identity returns the identity transformation on d dimensions.
func Identity(d int) *Transform { return New("identity", exact.Identity(d)) }

// IsIdentity reports whether the transform is an identity map.
func (t *Transform) IsIdentity() bool { return t.M.IsIdentity() }

// Transposed returns the transform defined by Mᵀ, used to apply the
// output transformation ν^T of Algorithm 1. The result is computed once
// and shared; callers must not mutate it.
func (t *Transform) Transposed() *Transform {
	t.trOnce.Do(func() {
		t.tr = New(t.Name+"ᵀ", t.M.Transpose())
	})
	return t.tr
}

// Inverse returns the inverse transformation; the recursive inverse of
// φ^L is (φ⁻¹)^L. It errors when M is singular or rectangular.
func (t *Transform) Inverse() (*Transform, error) {
	inv, err := t.M.Inverse()
	if err != nil {
		return nil, fmt.Errorf("basis: %s not invertible: %w", t.Name, err)
	}
	return New(t.Name+"⁻¹", inv), nil
}

// Additions returns the number of block additions one recursion step of
// the transform performs: Σ_j max(nnz(column j)-1, 0). Divided by D₁ it
// gives the n² log n coefficient of the transform's arithmetic cost.
func (t *Transform) Additions() int {
	total := 0
	for j := 0; j < t.D2; j++ {
		nnz := 0
		for i := 0; i < t.D1; i++ {
			if t.M.At(i, j).Sign() != 0 {
				nnz++
			}
		}
		if nnz > 1 {
			total += nnz - 1
		}
	}
	return total
}

// Apply computes φ^level on an operand in stacked layout: in must have
// rows divisible by D₁^level, interpreted as D₁^level base blocks; the
// result has D₂^level base blocks of the same shape.
func (t *Transform) Apply(in *matrix.Matrix, level, workers int) *matrix.Matrix {
	d1l := ipow(t.D1, level)
	if in.Rows%d1l != 0 {
		panic(fmt.Sprintf("basis: %d rows not divisible by %d^%d", in.Rows, t.D1, level))
	}
	h := in.Rows / d1l
	out := matrix.New(ipow(t.D2, level)*h, in.Cols)
	t.ApplyInto(out, in, level, workers, pool.Global, nil)
	return out
}

// ApplyInto computes φ^level on src, writing the result into dst (which
// must have D₂^level base blocks of src's base shape and must not alias
// src — the leaf level combines straight out of src while writing dst)
// and drawing all scratch from al. dst may be dirty scratch; every
// element is written. cn is a cooperative cancellation token (nil for
// none): the recursion polls it at every node boundary and abandons the
// remaining subtree once it is set, leaving dst partially written.
// Scratch accounting stays balanced.
//
//abmm:hotpath
func (t *Transform) ApplyInto(dst, src *matrix.Matrix, level, workers int, al pool.Allocator, cn *parallel.Cancel) {
	d1l := ipow(t.D1, level)
	if src.Rows%d1l != 0 {
		panic(fmt.Sprintf("basis: %d rows not divisible by %d^%d", src.Rows, t.D1, level))
	}
	if dst.Rows != ipow(t.D2, level)*(src.Rows/d1l) || dst.Cols != src.Cols {
		panic(matrix.ErrShape)
	}
	t.apply(dst, src, level, workers, al, cn)
}

func (t *Transform) apply(dst, src *matrix.Matrix, level, workers int, al pool.Allocator, cn *parallel.Cancel) {
	if cn.Canceled() {
		return
	}
	if level == 0 {
		matrix.CopyInto(dst, src)
		return
	}
	sh := src.Rows / t.D1
	dh := dst.Rows / t.D2
	if level == 1 {
		// Leaf fold: the level-0 sub-transforms are identity copies, so
		// the output groups combine directly from views of the source
		// groups, skipping D₁ block copies — one full pass over the
		// operand per recursion leaf that the unfolded recursion paid
		// for nothing. Bitwise identical to the unfolded step (the same
		// LinearCombine over the same values); requires dst not to
		// alias src, which ApplyInto's contract guarantees.
		srcGroups := al.Mats(t.D1)
		for i := range srcGroups {
			h := al.Hdr()
			src.ViewInto(h, i*sh, 0, sh, src.Cols)
			srcGroups[i] = h
		}
		if workers == 1 {
			dv := al.Hdr()
			for j := 0; j < t.D2; j++ {
				dst.ViewInto(dv, j*dh, 0, dh, dst.Cols)
				matrix.LinearCombine(dv, t.cols[j], srcGroups, 1)
			}
			al.PutHdr(dv)
		} else {
			parallel.For(t.D2, workers, 1, func(j int) {
				dv := al.Hdr()
				dst.ViewInto(dv, j*dh, 0, dh, dst.Cols)
				matrix.LinearCombine(dv, t.cols[j], srcGroups, 1)
				al.PutHdr(dv)
			})
		}
		for _, h := range srcGroups {
			al.PutHdr(h)
		}
		al.PutMats(srcGroups)
		return
	}
	// Recursively transform each input group into scratch, then
	// combine scratch groups into the output groups. The recursion
	// order follows Definition II.1 (transform sub-vectors first).
	tmpGroup := dh // rows of one transformed input group: D₂^{level-1}·h
	tmpBuf := al.Floats(t.D1 * tmpGroup * src.Cols)
	tmp := al.Mats(t.D1)
	for i := range tmp {
		h := al.Hdr()
		h.Init(tmpGroup, src.Cols, tmpBuf[i*tmpGroup*src.Cols:(i+1)*tmpGroup*src.Cols])
		tmp[i] = h
	}
	if workers == 1 {
		sv := al.Hdr()
		for i := 0; i < t.D1; i++ {
			src.ViewInto(sv, i*sh, 0, sh, src.Cols)
			t.apply(tmp[i], sv, level-1, 1, al, cn)
		}
		dv := al.Hdr()
		for j := 0; j < t.D2; j++ {
			dst.ViewInto(dv, j*dh, 0, dh, dst.Cols)
			matrix.LinearCombine(dv, t.cols[j], tmp, 1)
		}
		al.PutHdr(sv)
		al.PutHdr(dv)
	} else {
		parallel.For(t.D1, workers, 1, func(i int) {
			sv := al.Hdr()
			src.ViewInto(sv, i*sh, 0, sh, src.Cols)
			t.apply(tmp[i], sv, level-1, 1, al, cn)
			al.PutHdr(sv)
		})
		parallel.For(t.D2, workers, 1, func(j int) {
			dv := al.Hdr()
			dst.ViewInto(dv, j*dh, 0, dh, dst.Cols)
			matrix.LinearCombine(dv, t.cols[j], tmp, 1)
			al.PutHdr(dv)
		})
	}
	for _, h := range tmp {
		al.PutHdr(h)
	}
	al.PutMats(tmp)
	al.PutFloats(tmpBuf)
}

func ipow(b, e int) int {
	v := 1
	for ; e > 0; e-- {
		v *= b
	}
	return v
}
