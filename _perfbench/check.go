package main

import (
	"math"

	"abmm"
)

// oracle is what every output of one input pair is checked against:
// the quad-precision reference product (nil for a kind-only check),
// the positions where the classical float64 product is not finite, and
// the norm product ‖A‖max·‖B‖max the relative error is taken against.
type oracle struct {
	ref       *abmm.Matrix
	nonfinite []int // row-major indices, ascending
	norm      float64
}

// newOracle computes the references for A·B once, outside any timed
// interval. With exact false only the classical non-finite positions
// are kept: the output is then checked in kind only.
func newOracle(a, b *abmm.Matrix, exact bool, workers int) *oracle {
	o := &oracle{norm: a.MaxNorm() * b.MaxNorm()}
	classical := abmm.MultiplyClassical(a, b, workers)
	o.nonfinite = nonfiniteIndices(classical)
	if exact {
		o.ref = abmm.ReferenceProduct(a, b, workers)
	}
	return o
}

// nonfiniteIndices lists the row-major positions of m's NaN and ±Inf
// entries.
func nonfiniteIndices(m *abmm.Matrix) []int {
	var idx []int
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			if !finite(v) {
				idx = append(idx, i*m.Cols+j)
			}
		}
	}
	return idx
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// verdict is the outcome of checking one output.
type verdict struct {
	// RelErr is max|got−ref| / (‖A‖‖B‖) over entries finite in both; 0
	// for a kind-only check.
	RelErr float64
	// Mismatch counts entries whose finiteness differs from the
	// classical product's.
	Mismatch int
}

// check compares got with the oracle entry by entry. It allocates
// nothing, so it may run between timed operations.
func (o *oracle) check(got *abmm.Matrix) verdict {
	var v verdict
	next := 0 // cursor into o.nonfinite
	maxDiff := 0.0
	for i := 0; i < got.Rows; i++ {
		row := got.Row(i)
		var refRow []float64
		if o.ref != nil {
			refRow = o.ref.Row(i)
		}
		base := i * got.Cols
		for j, g := range row {
			classicalFinite := true
			if next < len(o.nonfinite) && o.nonfinite[next] == base+j {
				classicalFinite = false
				next++
			}
			gf := finite(g)
			if gf != classicalFinite {
				v.Mismatch++
				continue
			}
			if refRow == nil || !gf || !finite(refRow[j]) {
				continue
			}
			if d := math.Abs(g - refRow[j]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	v.RelErr = ratio(maxDiff, o.norm)
	return v
}

// passes reports whether a checked output meets the plan's error bound
// and matches the classical product's finiteness everywhere.
func (v verdict) passes(bound float64) bool {
	return v.Mismatch == 0 && v.RelErr <= bound
}
