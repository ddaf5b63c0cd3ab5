package stability

import (
	"math"
	"math/big"
	"testing"

	"abmm/internal/algos"
)

func TestStabilityFactorsTableI(t *testing.T) {
	cases := []struct {
		alg  *algos.Algorithm
		want int64
	}{
		{algos.Strassen(), 12},
		{algos.Winograd(), 18},
		{algos.Ours(), 12},
		{algos.AltWinograd(), 18},
		{algos.Classical(2, 2, 2), 2}, // a_r=b_r=1, e_k = Σ_r |w| = K0 = 2
	}
	for _, c := range cases {
		if got := Factor(c.alg); got.Cmp(big.NewRat(c.want, 1)) != 0 {
			t.Errorf("%s: E = %s, want %d", c.alg.Name, got.RatString(), c.want)
		}
	}
}

func TestStabilityVectorStrassen(t *testing.T) {
	s := algos.Strassen()
	e := Vector(s.Spec.U, s.Spec.V, s.Spec.W)
	// e_C11 = M1(4)+M4(2)+M5(2)+M7(4) = 12; e_C12 = M3(2)+M5(2) = 4;
	// e_C21 = M2(2)+M4(2) = 4; e_C22 = M1(4)+M2(2)+M3(2)+M6(4) = 12.
	want := []int64{12, 4, 4, 12}
	for k, w := range want {
		if e[k].Cmp(big.NewRat(w, 1)) != 0 {
			t.Errorf("e[%d] = %s, want %d", k, e[k].RatString(), w)
		}
	}
}

func TestAltBasisPreservesFactor(t *testing.T) {
	// Corollary III.9: stability factor invariant under basis change.
	if Factor(algos.Ours()).Cmp(Factor(algos.Strassen())) != 0 {
		t.Error("Ours and Strassen must share E")
	}
	if Factor(algos.AltWinograd()).Cmp(Factor(algos.Winograd())) != 0 {
		t.Error("AltWinograd and Winograd must share E")
	}
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	if Factor(fd).Cmp(Factor(algos.Strassen())) != 0 {
		t.Error("full decomposition must share E with its base")
	}
}

func TestErrorExponents(t *testing.T) {
	if got := ErrorExponent(algos.Strassen()); math.Abs(got-math.Log2(12)) > 1e-12 {
		t.Errorf("Strassen exponent %g, want log2(12)", got)
	}
	if got := ErrorExponent(algos.Winograd()); math.Abs(got-math.Log2(18)) > 1e-12 {
		t.Errorf("Winograd exponent %g, want log2(18)", got)
	}
}

func TestPrefactorBilinear(t *testing.T) {
	s := algos.Strassen().Spec
	qb := PrefactorBilinear(s.U, s.V, s.W)
	// Strassen: α,β per product: M1(2,2) M2(2,1) M3(1,2) M4(1,2)
	// M5(2,1) M6(2,2) M7(2,2); γ: C11=4,C12=2,C21=2,C22=4.
	// q_C11 = 4+max(4,3,3,4)=8; q_C22 = 4+max(4,3,3,4)=8 → Q_B = 8.
	if qb != 8 {
		t.Errorf("Strassen Q_B = %d, want 8", qb)
	}
	w := algos.Winograd().Spec
	if got := PrefactorBilinear(w.U, w.V, w.W); got <= 0 {
		t.Errorf("Winograd Q_B = %d", got)
	}
}

func TestPrefactorOrdering(t *testing.T) {
	// Remark III.6: Q ≤ Q'. And alternative bases must increase the
	// prefactor relative to the bilinear-only Q_B.
	for _, alg := range []*algos.Algorithm{algos.Ours(), algos.AltWinograd()} {
		q := Prefactor(alg)
		qp := PrefactorLoose(alg)
		if q > qp {
			t.Errorf("%s: Q=%d > Q'=%d violates Remark III.6", alg.Name, q, qp)
		}
		s := alg.Spec
		if qb := PrefactorBilinear(s.U, s.V, s.W); q < qb {
			t.Errorf("%s: Q=%d below bilinear Q_B=%d", alg.Name, q, qb)
		}
	}
}

func TestPrefactorIdentityTransformsReduceToBilinear(t *testing.T) {
	s := algos.Strassen()
	q := Prefactor(s)
	qb := PrefactorBilinear(s.Spec.U, s.Spec.V, s.Spec.W)
	// With identity transforms, q^φ ≡ 1 and q^ν ≡ 1, so the Def III.4
	// value is Q_B + 3 (one unit per transform), matching the paper's
	// remark that its analysis is higher by exactly the error-free ±1
	// multiplications it does not special-case.
	if q != qb+3 {
		t.Errorf("standard-basis Q = %d, want Q_B+3 = %d", q, qb+3)
	}
}

func TestFullDecompositionPrefactorWellDefined(t *testing.T) {
	// With identity bilinear operators the Def III.4 prefactor of a
	// full decomposition comes almost entirely from the transform
	// column counts; it must stay positive, respect Q ≤ Q', and exceed
	// the prefactor of the (trivial) identity bilinear phase alone.
	fd, err := algos.FullDecomposition(algos.Strassen())
	if err != nil {
		t.Fatal(err)
	}
	q, qp := Prefactor(fd), PrefactorLoose(fd)
	if q <= 0 || q > qp {
		t.Errorf("full decomposition Q=%d Q'=%d", q, qp)
	}
	if qb := PrefactorBilinear(fd.Spec.U, fd.Spec.V, fd.Spec.W); q <= qb {
		t.Errorf("Q=%d not above identity-phase Q_B=%d", q, qb)
	}
}

func TestErrorBoundMonotoneInN(t *testing.T) {
	alg := algos.Strassen()
	prev := 0.0
	for _, n := range []float64{64, 256, 1024, 4096} {
		b := ErrorBound(alg, n)
		if b <= prev {
			t.Fatalf("bound not increasing at n=%g", n)
		}
		prev = b
	}
}

func TestErrorBoundOrdering(t *testing.T) {
	// At large n the E=18 algorithms must have (much) larger bounds
	// than the E=12 ones.
	n := 4096.0
	if ErrorBound(algos.Winograd(), n) <= ErrorBound(algos.Strassen(), n) {
		t.Error("Winograd bound should exceed Strassen's")
	}
	if ErrorBound(algos.AltWinograd(), n) <= ErrorBound(algos.Ours(), n) {
		t.Error("AltWinograd bound should exceed Ours'")
	}
}

func TestErrorBoundKL(t *testing.T) {
	alg := algos.Strassen()
	// L=0 reduces to the classical bound (K+0)·K·E⁰ = K².
	if got := ErrorBoundKL(algos.Repeat(alg, 0), 64); got != 64*64 {
		t.Errorf("L=0 bound = %g, want 4096", got)
	}
	if ErrorBoundKL(algos.Repeat(alg, 3), 64) <= ErrorBoundKL(algos.Repeat(alg, 0), 64)/10 {
		t.Error("bound should not collapse with levels")
	}
	// A non-stationary list sums the per-level prefactors and multiplies
	// the per-level stability factors.
	w := algos.Winograd()
	base := 64.0 / 4
	want := (base + float64(PrefactorLoose(alg)+PrefactorLoose(w))) * base * FactorFloat(alg) * FactorFloat(w)
	if got := ErrorBoundKL([]*algos.Algorithm{alg, w}, 64); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("strassen+winograd bound = %g, want %g", got, want)
	}
}
