// Package stability implements the paper's error-analysis quantities:
// the stability vector and factor E (Definitions III.1–III.2), the
// prefactor vectors Q_B, Q and the loose prefactor Q' (Definitions
// III.3–III.5), the error-bound functions of Theorems I.1 and III.8,
// and exact arithmetic-cost accounting (operation counts and leading
// coefficients) for whole algorithms including their basis
// transformations.
package stability

import (
	"math"
	"math/big"

	"abmm/internal/algos"
	"abmm/internal/exact"
)

// Vector computes the stability vector e of a standard-basis operator
// triple (Definition III.1): with a_r = Σ_i |u_ir| and b_r = Σ_j |v_jr|,
// e_k = Σ_r a_r·b_r·|w_kr|.
func Vector(u, v, w *exact.Matrix) []*big.Rat {
	r := u.Cols
	a := colAbsSums(u)
	b := colAbsSums(v)
	e := make([]*big.Rat, w.Rows)
	var t, abs big.Rat
	for k := range e {
		e[k] = new(big.Rat)
		for rr := 0; rr < r; rr++ {
			wv := w.At(k, rr)
			if wv.Sign() == 0 {
				continue
			}
			abs.Abs(wv)
			t.Mul(a[rr], b[rr])
			t.Mul(&t, &abs)
			e[k].Add(e[k], &t)
		}
	}
	return e
}

func colAbsSums(m *exact.Matrix) []*big.Rat {
	out := make([]*big.Rat, m.Cols)
	var abs big.Rat
	for c := range out {
		out[c] = new(big.Rat)
		for r := 0; r < m.Rows; r++ {
			v := m.At(r, c)
			if v.Sign() == 0 {
				continue
			}
			abs.Abs(v)
			out[c].Add(out[c], &abs)
		}
	}
	return out
}

// Factor returns the stability factor E = max_k e_k of an algorithm,
// computed from its standard-basis representation (Definition III.2),
// so alternative basis algorithms share E with their standard-basis
// counterparts (Corollary III.9).
func Factor(alg *algos.Algorithm) *big.Rat {
	u, v, w := alg.StandardUVW()
	return maxRat(Vector(u, v, w))
}

// FactorFloat is Factor rounded to float64.
func FactorFloat(alg *algos.Algorithm) float64 {
	f, _ := Factor(alg).Float64()
	return f
}

// MaxRatOfVector returns the stability factor of a raw standard-basis
// triple, max_k of the stability vector. It lets searches filter
// candidates without constructing full Algorithm values.
func MaxRatOfVector(u, v, w *exact.Matrix) *big.Rat {
	return maxRat(Vector(u, v, w))
}

func maxRat(v []*big.Rat) *big.Rat {
	max := new(big.Rat)
	for _, e := range v {
		if e.Cmp(max) > 0 {
			max.Set(e)
		}
	}
	return max
}

// PrefactorBilinear computes Q_B (Definition III.3) of the bilinear
// phase operators: with α_r, β_r the nonzero counts of the encoding
// columns and γ_k of the decoding rows,
// q_k = γ_k + max_r (α_r+β_r)·I(w_kr).
func PrefactorBilinear(u, v, w *exact.Matrix) int {
	alpha := colNNZ(u)
	beta := colNNZ(v)
	q := 0
	for k := 0; k < w.Rows; k++ {
		gamma, inner := 0, 0
		for r := 0; r < w.Cols; r++ {
			if w.At(k, r).Sign() == 0 {
				continue
			}
			gamma++
			if s := alpha[r] + beta[r]; s > inner {
				inner = s
			}
		}
		if gamma+inner > q {
			q = gamma + inner
		}
	}
	return q
}

func colNNZ(m *exact.Matrix) []int {
	out := make([]int, m.Cols)
	for c := range out {
		for r := 0; r < m.Rows; r++ {
			if m.At(r, c).Sign() != 0 {
				out[c]++
			}
		}
	}
	return out
}

func rowNNZ(m *exact.Matrix) []int {
	out := make([]int, m.Rows)
	for r := range out {
		for c := 0; c < m.Cols; c++ {
			if m.At(r, c).Sign() != 0 {
				out[r]++
			}
		}
	}
	return out
}

// Prefactor computes the tight alternative basis prefactor Q of
// Definition III.4. For a standard-basis algorithm (identity
// transformations) it reduces to Q_B plus the trivial transform counts.
func Prefactor(alg *algos.Algorithm) int {
	s := alg.Spec
	uPhi, vPsi, wNu := s.U, s.V, s.W
	phi, psi, nu := transformOrIdentity(alg)

	// q^φ_j = Σ_i I(φ_ij): column nonzeros of φ; likewise ψ.
	qPhi := colNNZ(phi)
	qPsi := colNNZ(psi)
	// q^ν_i = Σ_j I(ν_ij): row nonzeros of ν (ν maps D_W → M₀N₀ rows).
	qNu := rowNNZ(nu)

	alpha := colNNZ(uPhi)
	beta := colNNZ(vPsi)
	// y_r = α_r + max_i q^φ_i·I(u^φ_ir); z_r likewise with ψ and V_ψ.
	y := make([]int, s.R)
	z := make([]int, s.R)
	for r := 0; r < s.R; r++ {
		my, mz := 0, 0
		for i := 0; i < uPhi.Rows; i++ {
			if uPhi.At(i, r).Sign() != 0 && qPhi[i] > my {
				my = qPhi[i]
			}
		}
		for i := 0; i < vPsi.Rows; i++ {
			if vPsi.At(i, r).Sign() != 0 && qPsi[i] > mz {
				mz = qPsi[i]
			}
		}
		y[r] = alpha[r] + my
		z[r] = beta[r] + mz
	}
	gamma := rowNNZ(wNu)
	// inner_k = γ_k + max_r (y_r+z_r)·I(w^ν_kr), k ∈ [D_W].
	inner := make([]int, wNu.Rows)
	for k := range inner {
		m := 0
		for r := 0; r < s.R; r++ {
			if wNu.At(k, r).Sign() != 0 && y[r]+z[r] > m {
				m = y[r] + z[r]
			}
		}
		inner[k] = gamma[k] + m
	}
	// q_j = q^ν_j + max_k inner_k·I(ν_jk), j ∈ [M₀N₀].
	q := 0
	for j := 0; j < nu.Rows; j++ {
		m := 0
		for k := 0; k < nu.Cols; k++ {
			if nu.At(j, k).Sign() != 0 && inner[k] > m {
				m = inner[k]
			}
		}
		if qNu[j]+m > q {
			q = qNu[j] + m
		}
	}
	return q
}

// PrefactorLoose computes Q' = Q_B + Q^φ + Q^ψ + Q^ν (Definition
// III.5), the prefactor used by the short proof of Theorem III.8.
func PrefactorLoose(alg *algos.Algorithm) int {
	s := alg.Spec
	phi, psi, nu := transformOrIdentity(alg)
	qb := PrefactorBilinear(s.U, s.V, s.W)
	return qb + maxInt(colNNZ(phi)) + maxInt(colNNZ(psi)) + maxInt(rowNNZ(nu))
}

func transformOrIdentity(alg *algos.Algorithm) (phi, psi, nu *exact.Matrix) {
	s := alg.Spec
	phi, psi, nu = exact.Identity(s.M0*s.K0), exact.Identity(s.K0*s.N0), exact.Identity(s.M0*s.N0)
	if alg.Phi != nil {
		phi = alg.Phi.M
	}
	if alg.Psi != nil {
		psi = alg.Psi.M
	}
	if alg.Nu != nil {
		nu = alg.Nu.M
	}
	return phi, psi, nu
}

func maxInt(v []int) int {
	m := 0
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// ErrorBound evaluates the Theorem I.1 bound factor
// f_ALG(N) = (1 + Q·log_{N₀}N)·N^{log_{N₀}E} for a square problem of
// size n, so that ‖Ĉ−C‖ ≤ f·‖A‖‖B‖·ε + O(ε²). The prefactor used is
// the tight Q of Definition III.4.
func ErrorBound(alg *algos.Algorithm, n float64) float64 {
	e := FactorFloat(alg)
	q := float64(Prefactor(alg))
	n0 := float64(alg.Spec.N0)
	logN := math.Log(n) / math.Log(n0)
	return (1 + q*logN) * math.Pow(n, math.Log(e)/math.Log(n0))
}

// ErrorBoundKL evaluates the Theorem III.8 bound factor of a recursion
// that runs algs[0] at the top level and algs[l] l levels below it,
// with the loose prefactor:
//
//	f(K, L) = (K/K₀^L + Σₗ Q'ₗ)·(K/K₀^L)·Πₗ Eₗ,   L = len(algs),
//
// where K₀^L is the product of the per-level K₀. For L copies of one
// algorithm (algos.Repeat) it is the paper's (K/K₀^L + Q'·L)·(K/K₀^L)·E^L;
// the per-level induction step is in DESIGN.md §2a.
func ErrorBoundKL(algs []*algos.Algorithm, k float64) float64 {
	k0, q, e := 1.0, 0.0, 1.0
	var ql, el float64
	for i, alg := range algs {
		if i == 0 || alg != algs[i-1] {
			// Exact-rational work; a uniform list computes it once.
			ql, el = float64(PrefactorLoose(alg)), FactorFloat(alg)
		}
		k0 *= float64(alg.Spec.K0)
		q += ql
		e *= el
	}
	base := k / k0
	return (base + q) * base * e
}

// ErrorExponent returns log_{N₀}E, the exponent of the error bound —
// the quantity Corollary III.9 proves invariant under basis change.
func ErrorExponent(alg *algos.Algorithm) float64 {
	return math.Log(FactorFloat(alg)) / math.Log(float64(alg.Spec.N0))
}
