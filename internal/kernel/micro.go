package kernel

// The register micro-kernel. MR×NR is the register-tile shape: one call
// accumulates an MR×NR tile of the product over a kc-deep slice of the
// inner dimension, reading the operands from packed micro-panels so
// every load is unit-stride and every accumulator lives in a register
// for the whole k loop. 4×8 puts one packed B row of a k step in one
// ZMM register (or two YMM), so the AVX-512 kernel holds the tile in
// four ZMM accumulators and the AVX2 kernel in eight YMM, with every
// loaded B element reused four times and every A element eight times.
// A wider 8×8 tile measured no faster: with separate multiply and add,
// four accumulator chains already keep both vector ports busy
// (EXPERIMENTS.md "Micro-kernel tile").
const (
	// MR is the number of A rows (product rows) per register tile.
	MR = 4
	// NR is the number of B columns (product columns) per register tile.
	NR = 8
)

// microImpl names one micro-kernel implementation.
type microImpl uint8

const (
	pathGeneric microImpl = iota
	pathAVX2
	pathAVX512
)

// String returns the name MicroPath reports: "generic", "avx2" or
// "avx512".
func (p microImpl) String() string {
	switch p {
	case pathAVX512:
		return "avx512"
	case pathAVX2:
		return "avx2"
	}
	return "generic"
}

// microPath is the implementation microKernel dispatches to: the
// widest one the CPU supports, probed once at init. Only tests change
// it (see forceMicroPath in the test files).
var microPath = bestMicroPath()

func bestMicroPath() microImpl {
	switch {
	case haveAVX512:
		return pathAVX512
	case haveAVX2:
		return pathAVX2
	}
	return pathGeneric
}

// MicroPath reports which micro-kernel this process runs: "avx512",
// "avx2" or "generic". The choice is made from CPUID and XCR0 at init;
// benchmark files record it so a number can be put down to the path
// that produced it.
func MicroPath() string { return microPath.String() }

// microKernel accumulates acc += Ap·Bp over one packed micro-panel
// pair: ap is an MR-row micro-panel stored k-major (the MR row elements
// of one k adjacent), bp an NR-column micro-panel stored k-major, both
// sliced to exactly kc·MR and kc·NR elements. acc is the row-major
// MR×NR register tile.
//
// On amd64 with AVX-512 or AVX2 the tile is computed by an assembly
// kernel in micro_amd64.s (AVX-512: one ZMM accumulator per row; AVX2:
// two YMM per row), and everywhere else by the portable Go loop below. Every path uses a
// separate multiply and add — never FMA — and applies the products to
// each accumulator one at a time in ascending k order: the same
// rounding chain as the textbook triple loop, which is what lets the
// packed path pin bitwise equality with MulNaive.
//
//abmm:hotpath
func microKernel(ap, bp []float64, acc *[MR * NR]float64) {
	if microPath != pathGeneric && len(ap) >= MR && len(bp) >= NR {
		kc := min(len(ap)/MR, len(bp)/NR)
		if microPath == pathAVX512 {
			microAVX512(&ap[0], &bp[0], kc, acc)
		} else {
			microAVX2(&ap[0], &bp[0], kc, acc)
		}
		return
	}
	microGeneric(ap, bp, acc)
}

// microGeneric is the portable micro-kernel. It runs the 4×8 tile as
// two 4×4 column halves, each over the whole k loop, so each half keeps
// its sixteen accumulators in named locals without spilling on
// register-poor targets; the per-element rounding chain is unchanged
// because each accumulator still sees its products in ascending k.
//
//abmm:hotpath
func microGeneric(ap, bp []float64, acc *[MR * NR]float64) {
	microGenericHalf(ap, bp, acc, 0)
	if len(bp) > NR/2 {
		microGenericHalf(ap, bp[NR/2:], acc, NR/2)
	}
}

// microGenericHalf accumulates the four tile columns [j0, j0+4): bp
// starts at column j0 of the first k row and advances NR per k step
// (the last step of the right half has only its four columns left).
// The k loop advances both slices in lock step, so the loop condition
// proves every index in range and the body compiles without bounds
// checks.
//
//abmm:hotpath
func microGenericHalf(ap, bp []float64, acc *[MR * NR]float64, j0 int) {
	r0 := (*[4]float64)(acc[j0 : j0+4])
	r1 := (*[4]float64)(acc[NR+j0 : NR+j0+4])
	r2 := (*[4]float64)(acc[2*NR+j0 : 2*NR+j0+4])
	r3 := (*[4]float64)(acc[3*NR+j0 : 3*NR+j0+4])
	c00, c01, c02, c03 := r0[0], r0[1], r0[2], r0[3]
	c10, c11, c12, c13 := r1[0], r1[1], r1[2], r1[3]
	c20, c21, c22, c23 := r2[0], r2[1], r2[2], r2[3]
	c30, c31, c32, c33 := r3[0], r3[1], r3[2], r3[3]
	for len(ap) >= MR && len(bp) >= 4 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
		ap = ap[MR:]
		bp = bp[min(NR, len(bp)):]
	}
	r0[0], r0[1], r0[2], r0[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}
