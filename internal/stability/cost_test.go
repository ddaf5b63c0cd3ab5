package stability

import (
	"math"
	"testing"

	"abmm/internal/algos"
)

func TestLeadingCoefficients(t *testing.T) {
	cases := []struct {
		alg  *algos.Algorithm
		want float64
	}{
		{algos.Strassen(), 7},
		{algos.Winograd(), 6},
		{algos.Ours(), 5},
		{algos.AltWinograd(), 5},
	}
	for _, c := range cases {
		if got := LeadingCoefficient(c.alg); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s leading coefficient = %g, want %g", c.alg.Name, got, c.want)
		}
	}
}

func TestStrassenCostClosedForm(t *testing.T) {
	// Full recursion to 1×1: total flops must equal 7n^{log₂7} − 6n².
	alg := algos.Strassen()
	for _, l := range []int{1, 4, 8} {
		n := 1 << uint(l)
		c := ArithmeticCost(algos.Repeat(alg, l), n, n, n)
		nf := float64(n)
		want := 7*math.Pow(nf, math.Log2(7)) - 6*nf*nf
		if got := float64(c.Total()); math.Abs(got-want) > 1e-6*want {
			t.Errorf("n=%d: cost %g, want %g", n, got, want)
		}
		if c.TransformAdds != 0 {
			t.Errorf("standard basis has transform adds %d", c.TransformAdds)
		}
	}
}

func TestWinogradCostClosedForm(t *testing.T) {
	alg := algos.Winograd()
	n := 1 << 8
	c := ArithmeticCost(algos.Repeat(alg, 8), n, n, n)
	nf := float64(n)
	want := 6*math.Pow(nf, math.Log2(7)) - 5*nf*nf
	if got := float64(c.Total()); math.Abs(got-want) > 1e-6*want {
		t.Errorf("cost %g, want %g", got, want)
	}
	// Per-level lists count each level's additions on its own blocks:
	// 4×4 with strassen (18 adds) over winograd (15) costs 18·4 + 7·15
	// additions and 49 multiplications; the reverse order 15·4 + 7·18.
	s := algos.Strassen()
	if got := ArithmeticCost([]*algos.Algorithm{s, alg}, 4, 4, 4).Total(); got != 18*4+7*15+49 {
		t.Errorf("strassen over winograd costs %d, want %d", got, 18*4+7*15+49)
	}
	if got := ArithmeticCost([]*algos.Algorithm{alg, s}, 4, 4, 4).Total(); got != 15*4+7*18+49 {
		t.Errorf("winograd over strassen costs %d, want %d", got, 15*4+7*18+49)
	}
}

func TestOursCostClosedForm(t *testing.T) {
	// Table I: 5n^{log₂7} − 4n² + (9/4)n²log₂n with full recursion.
	alg := algos.Ours()
	for _, l := range []int{4, 8} {
		n := 1 << uint(l)
		c := ArithmeticCost(algos.Repeat(alg, l), n, n, n)
		nf := float64(n)
		want := 5*math.Pow(nf, math.Log2(7)) - 4*nf*nf + 2.25*nf*nf*math.Log2(nf)
		if got := float64(c.Total()); math.Abs(got-want) > 1e-6*want {
			t.Errorf("n=%d: cost %g, want %g (Δ=%g)", n, got, want, got-want)
		}
	}
}

func TestAltWinogradCostClosedForm(t *testing.T) {
	// Schwartz–Vaknin profile: 5n^{log₂7} − 4n² + (3/2)n²log₂n.
	alg := algos.AltWinograd()
	n := 1 << 8
	c := ArithmeticCost(algos.Repeat(alg, 8), n, n, n)
	nf := float64(n)
	want := 5*math.Pow(nf, math.Log2(7)) - 4*nf*nf + 1.5*nf*nf*math.Log2(nf)
	if got := float64(c.Total()); math.Abs(got-want) > 1e-6*want {
		t.Errorf("cost %g, want %g", got, want)
	}
}

func TestClassicalCost(t *testing.T) {
	alg := algos.Classical(2, 2, 2)
	c := ArithmeticCost(algos.Repeat(alg, 0), 64, 64, 64)
	if c.Mults != 64*64*64 || c.BaseAdds != 64*63*64 {
		t.Errorf("classical base cost wrong: %+v", c)
	}
	// Recursing with the classical algorithm must not change totals
	// beyond the removed large-k inner additions... it must cost the
	// same multiplications.
	c3 := ArithmeticCost(algos.Repeat(alg, 3), 64, 64, 64)
	if c3.Mults != c.Mults {
		t.Errorf("classical recursion changed multiplication count: %d vs %d", c3.Mults, c.Mults)
	}
}

func TestCostZeroLevelsIsClassical(t *testing.T) {
	c := ArithmeticCost(algos.Repeat(algos.Strassen(), 0), 128, 64, 32)
	if c.Mults != 128*64*32 || c.BilinearAdds != 0 || c.TransformAdds != 0 {
		t.Errorf("L=0 cost wrong: %+v", c)
	}
}

func TestLeadingCoefficientNumericMatchesClosedForm(t *testing.T) {
	for _, alg := range []*algos.Algorithm{algos.Strassen(), algos.Winograd()} {
		got := LeadingCoefficientNumeric(alg)
		want := LeadingCoefficient(alg)
		if math.Abs(got-want) > 0.05*want {
			t.Errorf("%s: numeric %g vs closed-form %g", alg.Name, got, want)
		}
	}
}

func TestRectangularCostRuns(t *testing.T) {
	alg := algos.Classical(3, 2, 4)
	c := ArithmeticCost(algos.Repeat(alg, 2), 9, 4, 16)
	if c.Mults != 9*4*16 {
		t.Errorf("rectangular classical mults = %d, want %d", c.Mults, 9*4*16)
	}
}
