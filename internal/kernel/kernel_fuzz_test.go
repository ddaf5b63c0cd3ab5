package kernel

import (
	"testing"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// FuzzMulBitwiseEqualsNaive lets the fuzzer hunt for shape/blocking
// combinations that break the kernel's headline contract: Mul must be
// bitwise identical to the naive triple loop for every m×k×n, including
// ragged edge tiles and blocking parameters smaller than one micro-tile,
// on every micro-kernel path the host supports (unsupported paths are
// left out of the loop).
func FuzzMulBitwiseEqualsNaive(f *testing.F) {
	f.Add(uint16(1), uint16(1), uint16(1), uint16(0), uint16(0), uint16(0), uint64(1))
	f.Add(uint16(7), uint16(11), uint16(13), uint16(8), uint16(4), uint16(8), uint64(2))
	f.Add(uint16(31), uint16(257), uint16(5), uint16(0), uint16(0), uint16(0), uint64(3))
	f.Add(uint16(97), uint16(101), uint16(103), uint16(12), uint16(300), uint16(20), uint64(4))
	f.Fuzz(func(t *testing.T, m, k, n, mc, kc, nc uint16, seed uint64) {
		// Clamp shapes to keep one fuzz execution cheap; blocking values
		// pass through normalized() so zero and tiny values are legal.
		M := int(m%128) + 1
		K := int(k%300) + 1
		N := int(n%128) + 1
		bl := Blocking{MC: int(mc % 160), KC: int(kc % 320), NC: int(nc % 160)}
		a := matrix.New(M, K)
		b := matrix.New(K, N)
		a.FillUniform(matrix.Rand(seed), -1, 1)
		b.FillUniform(matrix.Rand(seed+1), -1, 1)
		want := matrix.New(M, N)
		matrix.MulNaive(want, a, b)
		prev := microPath
		defer func() { microPath = prev }()
		for _, p := range microPaths {
			if !p.supported() {
				continue
			}
			microPath = p
			got := matrix.New(M, N)
			Mul(got, a, b, bl, 1, pool.Global, nil)
			if !matrix.Equal(got, want) {
				t.Fatalf("%s m=%d k=%d n=%d bl=%+v: packed kernel differs from naive (max diff %g)",
					p, M, K, N, bl, matrix.MaxAbsDiff(got, want))
			}
		}
	})
}
