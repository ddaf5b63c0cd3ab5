package kernel

import (
	"fmt"
	"testing"

	"abmm/internal/matrix"
	"abmm/internal/pool"
)

// fill populates m with a deterministic non-trivial pattern including
// negatives, zeros, and non-dyadic values so rounding differences are
// visible.
func fill(m *matrix.Matrix, seed int) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			v := float64((i*31+j*17+seed*13)%23) - 11.0
			if (i+j+seed)%7 == 0 {
				v = 0
			}
			m.Set(i, j, v/3)
		}
	}
}

// shapes exercises the edge machinery: tiles below MR×NR, odd and prime
// extents, ragged non-square panels (n not a multiple of NR, so the
// last B micro-panel is partly padding), and sizes crossing every
// blocking boundary (kc, mc, nc).
var shapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{2, 3, 2},
	{3, 5, 7},
	{4, 4, 4},
	{5, 4, 3},
	{5, 7, 3},
	{7, 11, 13},
	{16, 16, 16},
	{17, 19, 23},
	{31, 257, 5},
	{64, 64, 64},
	{65, 129, 67},
	{97, 101, 103},
	{1, 300, 1},
	{130, 1, 514},
	{129, 263, 517},
	{33, 65, 17},
	{257, 513, 259},
}

// TestMulBitwiseEqualsNaive runs every shape on every micro-kernel
// path the host supports (leaf subtests generic, avx2, avx512).
func TestMulBitwiseEqualsNaive(t *testing.T) {
	for _, s := range shapes {
		a := matrix.New(s.m, s.k)
		b := matrix.New(s.k, s.n)
		fill(a, 1)
		fill(b, 2)
		want := matrix.New(s.m, s.n)
		matrix.MulNaive(want, a, b)
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%dx%dx%d/w%d", s.m, s.k, s.n, workers), func(t *testing.T) {
				eachMicroPath(t, func(t *testing.T) {
					got := matrix.New(s.m, s.n)
					Mul(got, a, b, Blocking{}, workers, pool.Global, nil)
					if !matrix.Equal(got, want) {
						t.Fatalf("packed Mul differs bitwise from MulNaive")
					}
				})
			})
		}
	}
}

// TestMulAddBitwiseEqualsNaiveChain runs on every micro-kernel path
// the host supports.
func TestMulAddBitwiseEqualsNaiveChain(t *testing.T) {
	eachMicroPath(t, func(t *testing.T) {
		for _, s := range shapes {
			a := matrix.New(s.m, s.k)
			b := matrix.New(s.k, s.n)
			fill(a, 3)
			fill(b, 4)
			got := matrix.New(s.m, s.n)
			want := matrix.New(s.m, s.n)
			fill(got, 5)
			fill(want, 5)
			// Naive accumulation oracle: want[i][j] += Σ_k a·b in ascending
			// k, one rounding per add — the chain MulAdd must reproduce.
			for i := 0; i < s.m; i++ {
				for j := 0; j < s.n; j++ {
					v := want.At(i, j)
					for k := 0; k < s.k; k++ {
						v += a.At(i, k) * b.At(k, j)
					}
					want.Set(i, j, v)
				}
			}
			MulAdd(got, a, b, Blocking{}, 1, pool.Global, nil)
			if !matrix.Equal(got, want) {
				t.Errorf("%dx%dx%d: packed MulAdd differs bitwise from naive accumulation", s.m, s.k, s.n)
			}
		}
	})
}

// benchMatrix builds an n×n matrix filled with the deterministic
// pattern.
func benchMatrix(n, seed int) *matrix.Matrix {
	m := matrix.New(n, n)
	fill(m, seed)
	return m
}

func BenchmarkBaseCase(b *testing.B) {
	for _, n := range []int{256, 1024, 2048} {
		a := benchMatrix(n, 1)
		x := benchMatrix(n, 2)
		c := matrix.New(n, n)
		flops := 2 * int64(n) * int64(n) * int64(n)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				matrix.Mul(c, a, x, 1)
			}
		})
		b.Run(fmt.Sprintf("packed/n=%d", n), func(b *testing.B) {
			b.SetBytes(flops)
			for i := 0; i < b.N; i++ {
				Mul(c, a, x, Blocking{}, 1, pool.Global, nil)
			}
		})
	}
}
